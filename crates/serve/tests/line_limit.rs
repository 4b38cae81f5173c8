//! The serving loop bounds what it buffers of a request line: a client that
//! sends more than `max_line_bytes` without a newline gets its error at once,
//! not when (or if) the line ends, and the connection keeps serving after it.

#![cfg(unix)]

use gridcast_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[test]
fn an_oversize_line_is_rejected_before_its_newline_arrives() {
    let config = ServerConfig {
        workers: 1,
        max_line_bytes: 256,
        ..ServerConfig::default()
    };
    let (client, daemon_end) = UnixStream::pair().expect("socket pair");
    let mut server = Server::new(config.clone());
    let daemon_reader = daemon_end.try_clone().expect("clone socket");
    let serving = std::thread::spawn(move || server.serve(daemon_reader, daemon_end));

    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = client.try_clone().expect("clone socket");
    let mut responses = BufReader::new(client);

    // One byte past the limit and no newline: a reader that waits for the
    // end of the line never answers this.
    writer.write_all(&[b'x'; 257]).unwrap();
    let mut rejection = String::new();
    responses
        .read_line(&mut rejection)
        .expect("the oversize line is answered before its newline");
    assert!(rejection.contains(r#""status":"error""#), "{rejection}");
    assert!(rejection.contains("exceeds the limit"), "{rejection}");

    // The rest of the oversize line is discarded through its newline; the
    // next line is served exactly as an in-process server serves it.
    let line = r#"{"id":3,"grid":{"table2":{"clusters":12,"seed":5}},"include_schedule":true}"#;
    writer.write_all(&[b'y'; 1000]).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut response = String::new();
    responses
        .read_line(&mut response)
        .expect("the next line is served");
    let (expected, _) = Server::new(config).handle_batch(&[line.to_string()]);
    assert_eq!(response.trim_end_matches('\n'), expected[0]);

    // End of input ends the serving loop cleanly.
    drop(writer);
    drop(responses);
    serving
        .join()
        .expect("serving thread")
        .expect("serve returns at end of input");
}
