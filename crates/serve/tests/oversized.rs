//! A request whose size fields would make the server allocate without
//! bound is refused with a typed error frame, and the connection keeps
//! serving. Before the request bounds, the frame below made the server
//! attempt a 16 PB workload allocation; a failed allocation aborts the
//! process, which no per-request panic isolation can catch.

use std::net::TcpStream;

use agemul_codec::Json;
use agemul_serve::{roundtrip, spawn, Endpoint, ServeConfig};

fn ok(response: &Json) -> Option<bool> {
    response.get("ok").and_then(Json::as_bool)
}

fn error(response: &Json) -> &str {
    response.get("error").and_then(Json::as_str).unwrap_or("")
}

#[test]
fn oversized_request_gets_an_error_frame_and_the_connection_survives() {
    let server = spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 2,
        max_retries: 0,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut conn = TcpStream::connect(server.tcp_addr().expect("tcp addr")).expect("connect");
    let normal = |id: u64| {
        Json::parse(&format!(
            r#"{{"op":"profile","id":{id},"kind":"AM","width":4,"years":0,"patterns":16,"seed":1}}"#
        ))
        .unwrap()
    };

    let first = roundtrip(&mut conn, &normal(1)).unwrap();
    assert_eq!(ok(&first), Some(true), "{first}");

    let huge = Json::parse(
        r#"{"op":"profile","id":2,"kind":"AM","width":4,"years":0,"patterns":1000000000000000,"seed":1}"#,
    )
    .unwrap();
    let refused = roundtrip(&mut conn, &huge).unwrap();
    assert_eq!(ok(&refused), Some(false), "{refused}");
    assert!(
        error(&refused).contains("patterns must be at most"),
        "{refused}"
    );

    // The Monte Carlo op turns `years` into one lifetime point per year.
    let long_lived = Json::parse(
        r#"{"op":"mc","id":3,"kind":"AM","width":4,"years":1e15,"patterns":16,"seed":1,"corners":1,"sigma":0.05,"mc_seed":1,"skip":2}"#,
    )
    .unwrap();
    let refused = roundtrip(&mut conn, &long_lived).unwrap();
    assert_eq!(ok(&refused), Some(false), "{refused}");
    assert!(
        error(&refused).contains("years must be at most"),
        "{refused}"
    );

    let after = roundtrip(&mut conn, &normal(4)).unwrap();
    assert_eq!(ok(&after), Some(true), "{after}");
    assert_eq!(after.get("id").and_then(Json::as_u64), Some(4));
    server.shutdown().expect("clean shutdown");
}
