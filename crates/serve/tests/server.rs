//! End-to-end tests for the TCP front-end: the framed protocol
//! (hello → load → call → metrics) and the HTTP `GET /metrics` sniff
//! on the same port.

use std::io::{Read, Write};
use std::net::TcpStream;

use llva_core::layout::TargetConfig;
use llva_core::printer::print_module;
use llva_serve::server::Client;
use llva_serve::{ExecService, Request, Response, ServeConfig, Server, TenantQuota};

const MINIC_SRC: &str = r"
int answer() {
    int acc = 0;
    for (int i = 0; i < 7; i++) acc = acc + 6;
    return acc;
}
";

fn module_text() -> String {
    let module = llva_minic::compile(MINIC_SRC, "wire", TargetConfig::default())
        .expect("test module compiles");
    print_module(&module)
}

fn start_server() -> std::net::SocketAddr {
    let service = ExecService::new(ServeConfig::default());
    let server = Server::bind(service, "127.0.0.1:0", TenantQuota::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    drop(server.spawn());
    addr
}

#[test]
fn framed_protocol_load_call_metrics() {
    let addr = start_server();
    let mut client = Client::connect(addr, "acme").expect("hello");

    let loaded = client
        .request(&Request::Load {
            module: "m".to_string(),
            source: module_text(),
        })
        .unwrap();
    let Response::Loaded { cache, functions } = loaded else {
        panic!("expected Loaded, got {loaded:?}");
    };
    assert!(cache.starts_with('m'), "content-addressed cache: {cache}");
    assert_eq!(functions, 1);

    let answered = client
        .request(&Request::Call {
            module: "m".to_string(),
            entry: "answer".to_string(),
            args: Vec::new(),
            fuel: 0,
        })
        .unwrap();
    let Response::Value { value, degraded, .. } = answered else {
        panic!("expected Value, got {answered:?}");
    };
    assert_eq!(value, 42);
    assert!(!degraded);

    let metrics = client.request(&Request::Metrics).unwrap();
    let Response::Text { body } = metrics else {
        panic!("expected Text, got {metrics:?}");
    };
    assert!(body.contains(r#"llva_serve_calls_total{tenant="acme",result="ok"} 1"#));

    // structured errors, not dropped connections
    let err = client
        .request(&Request::Call {
            module: "ghost".to_string(),
            entry: "answer".to_string(),
            args: Vec::new(),
            fuel: 0,
        })
        .unwrap();
    assert!(matches!(err, Response::Error { .. }), "got {err:?}");
}

#[test]
fn hello_is_required_before_load_or_call() {
    let addr = start_server();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = std::io::BufWriter::new(stream);
    let req = Request::Call {
        module: "m".to_string(),
        entry: "f".to_string(),
        args: Vec::new(),
        fuel: 0,
    };
    llva_serve::proto::write_frame(&mut writer, &req.encode()).unwrap();
    let payload = llva_serve::proto::read_frame(&mut reader).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error { message } => assert!(message.contains("Hello"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn http_metrics_scrape_on_the_same_port() {
    let addr = start_server();
    // a framed client creates some state to scrape
    let mut client = Client::connect(addr, "acme").expect("hello");
    let loaded = client.request(&Request::Load {
        module: "m".to_string(),
        source: module_text(),
    });
    assert!(matches!(loaded, Ok(Response::Loaded { .. })));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("text/plain"));
    assert!(response.contains("llva_serve_tenants 1"));
    assert!(response.contains(r#"llva_serve_in_flight{tenant="acme"} 0"#));

    // other paths 404 without disturbing the service
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /nope HTTP/1.0\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");
}

/// A peer writing the length-only frames of earlier versions is refused
/// unanswered: the connection closes before a byte of its request is
/// decoded, and no tenant is registered.
#[test]
fn length_only_frames_are_refused_unanswered() {
    let addr = start_server();
    let hello = Request::Hello {
        tenant: "old".into(),
    }
    .encode();
    let mut old = (hello.len() as u32).to_le_bytes().to_vec();
    old.extend_from_slice(&hello);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&old).unwrap();
    let mut reply = Vec::new();
    // a close with the request unread may reach the peer as a reset
    let _ = stream.read_to_end(&mut reply);
    assert!(reply.is_empty(), "answered {reply:?}");

    let mut client = Client::connect(addr, "acme").expect("hello");
    let Ok(Response::Text { body }) = client.request(&Request::Metrics) else {
        panic!("metrics");
    };
    assert!(body.contains("llva_serve_tenants 1"), "{body}");
}

/// A wire-level drain: the response body is the final metrics flush,
/// the accept loop exits, and the port stops serving.
#[test]
fn drain_over_the_wire_shuts_the_server_down() {
    let service = ExecService::new(ServeConfig::default());
    let server = Server::bind(service, "127.0.0.1:0", TenantQuota::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let accept_loop = server.spawn();

    let mut client = Client::connect(addr, "acme").expect("hello");
    let loaded = client.request(&Request::Load {
        module: "m".to_string(),
        source: module_text(),
    });
    assert!(matches!(loaded, Ok(Response::Loaded { .. })));

    let drained = client
        .request(&Request::Drain { deadline_ms: 10_000 })
        .unwrap();
    let Response::Text { body } = drained else {
        panic!("expected the final metrics flush, got {drained:?}");
    };
    assert!(body.contains("llva_serve_draining 1"), "{body}");

    // the accept loop observed the drain and exited (no hang here)
    accept_loop.join().expect("accept loop exits after drain");
}
