//! Regression tests for the front-door bugs: the `deadline_ms`-overflow
//! panic, the accept loop dying on transient errors, unbounded request
//! lines, the `FOR`-loop trip count that overflowed into a hang, the
//! op-free loop nest that ran for days, and the `i128` overflow in plan
//! rounding that killed a shard's batcher.
//!
//! Each test exercises the hostile input that used to take the service
//! (or one of its threads) down, then proves the connection/service
//! still serves normal traffic afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use aqua_serve::json::{self, quote, Value};
use aqua_serve::server::{accept_error_is_fatal, serve_lines, spawn_tcp};
use aqua_serve::{ServeError, Service, ServiceConfig};
use aqua_volume::Machine;

const TINY: &str = "
ASSAY tiny START
fluid A, B, m;
VAR Result[1];
m = MIX A AND B IN RATIOS 1 : 4 FOR 10;
SENSE OPTICAL it INTO Result[1];
END
";

fn parse(line: &str) -> Value {
    json::parse(line).expect("response must be valid JSON")
}

/// Bug 1: `deadline_ms: 18446744073709551615` used to reach
/// `Instant::now() + Duration::from_millis(u64::MAX)`, which panics and
/// kills the submitting thread. Now it's a typed `deadline_too_large`
/// rejection and the service keeps serving.
#[test]
fn huge_wire_deadline_is_rejected_not_a_panic() {
    let svc = Service::new(ServiceConfig::default());
    let resp = svc.handle_line(&format!(
        "{{\"id\":1,\"src\":{},\"deadline_ms\":18446744073709551615}}",
        quote(TINY)
    ));
    let v = parse(&resp);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        v.get("error").and_then(Value::as_str),
        Some("deadline_too_large")
    );

    // i64::MAX ms is also beyond any sane cap.
    let resp = svc.handle_line(&format!(
        "{{\"id\":2,\"src\":{},\"deadline_ms\":9223372036854775807}}",
        quote(TINY)
    ));
    assert_eq!(
        parse(&resp).get("error").and_then(Value::as_str),
        Some("deadline_too_large")
    );

    // Negative and fractional deadlines stay bad_request.
    for bad in ["-1", "1.5"] {
        let resp = svc.handle_line(&format!(
            "{{\"id\":3,\"src\":{},\"deadline_ms\":{bad}}}",
            quote(TINY)
        ));
        assert_eq!(
            parse(&resp).get("error").and_then(Value::as_str),
            Some("bad_request"),
            "deadline_ms={bad}"
        );
    }

    // The service is still alive and compiles normally.
    let resp = svc.handle_line(&format!("{{\"id\":4,\"src\":{}}}", quote(TINY)));
    assert_eq!(parse(&resp).get("ok"), Some(&Value::Bool(true)));
}

/// The programmatic API clamps instead of rejecting: a caller-supplied
/// `Duration` beyond the cap must neither panic nor error.
#[test]
fn huge_programmatic_deadline_is_clamped() {
    let svc = Service::new(ServiceConfig::default());
    let machine = Machine::paper_default();
    let served = svc
        .submit_src(
            TINY,
            &machine,
            Some(std::time::Duration::from_millis(u64::MAX)),
        )
        .expect("clamped deadline must serve");
    assert!(!served.plan.is_empty());
}

/// Bug 2: one transient `accept(2)` error used to return from the
/// accept loop, permanently killing the listener. The classification
/// is unit-tested in `server.rs`; here we prove the listener survives
/// rude connection churn (immediate RST-ish drops) and still serves.
#[test]
fn listener_survives_connection_churn() {
    let svc = Arc::new(Service::new(ServiceConfig::default()));
    let (addr, _accept) = spawn_tcp(Arc::clone(&svc), "127.0.0.1:0").expect("bind");

    for _ in 0..32 {
        // Connect and slam the door: drop without reading or writing.
        let conn = TcpStream::connect(addr).expect("connect");
        drop(conn);
    }

    // Transient errors must be retried...
    assert!(!accept_error_is_fatal(&std::io::Error::from_raw_os_error(
        103 // ECONNABORTED
    )));
    assert!(!accept_error_is_fatal(&std::io::Error::from_raw_os_error(
        24 // EMFILE
    )));

    // ...and the listener still answers a clean request afterwards.
    let mut conn = TcpStream::connect(addr).expect("listener must still accept");
    let req = format!("{{\"id\":\"after\",\"src\":{}}}\n", quote(TINY));
    conn.write_all(req.as_bytes()).expect("write");
    conn.shutdown(std::net::Shutdown::Write).expect("shutdown");
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).expect("read");
    assert!(
        line.starts_with("{\"id\":\"after\",\"ok\":true,"),
        "listener dead after churn: {line}"
    );
}

/// Bug 3a: an over-long request line used to be buffered without bound
/// (OOM lever). Now it yields a typed `too_large` response, memory use
/// stays capped, and the *next* line on the connection still works.
#[test]
fn oversized_line_gets_too_large_and_stream_resyncs() {
    let svc = Service::new(ServiceConfig {
        max_line_bytes: 256,
        ..ServiceConfig::default()
    });

    // ~4 KiB of garbage with no interior newline, then a valid command.
    let mut input = vec![b'x'; 4096];
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\":2,\"cmd\":\"stats\"}\n");
    let mut out = Vec::new();
    serve_lines(&svc, input.as_slice(), &mut out).expect("serve");
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let first = parse(lines[0]);
    assert_eq!(first.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        first.get("error").and_then(Value::as_str),
        Some("too_large")
    );
    let second = parse(lines[1]);
    assert_eq!(second.get("ok"), Some(&Value::Bool(true)), "{text}");
}

/// Bug 3b: invalid UTF-8 used to kill the whole connection via the
/// `lines()` error path. Now it's a `bad_request` for that line only.
#[test]
fn invalid_utf8_line_gets_bad_request_and_connection_continues() {
    let svc = Service::new(ServiceConfig::default());
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"{\"id\":1,\"cmd\":\"stats\"\xff\xfe}\n");
    input.extend_from_slice(b"{\"id\":2,\"cmd\":\"stats\"}\n");
    let mut out = Vec::new();
    serve_lines(&svc, input.as_slice(), &mut out).expect("serve");
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let first = parse(lines[0]);
    assert_eq!(first.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        first.get("error").and_then(Value::as_str),
        Some("bad_request")
    );
    assert_eq!(parse(lines[1]).get("ok"), Some(&Value::Bool(true)));
}

/// A `FOR` loop whose `TO - FROM` overflows `i64` used to wrap into a
/// ~2^63-iteration loop (release) or panic (debug) on the request's own
/// thread. Both compile entry points — plain `src` requests and
/// `session.register` — must answer `bad_request` promptly; the
/// watchdog turns a pinned core into a failure instead of a hang.
#[test]
fn overflowing_for_loop_gets_bad_request() {
    let src = "
ASSAY wrap START
fluid A, B;
VAR temp;
FOR i FROM 0 - 9223372036854775807 - 1 TO 1 START
  temp = 1;
ENDFOR
MIX A AND B FOR 5;
END
";
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let svc = Service::new(ServiceConfig::default());
        let responses = [
            svc.handle_line(&format!("{{\"id\":1,\"src\":{}}}", quote(src))),
            svc.handle_line(&format!(
                "{{\"id\":2,\"cmd\":\"session.register\",\"src\":{}}}",
                quote(src)
            )),
            svc.handle_line(&format!("{{\"id\":3,\"src\":{}}}", quote(TINY))),
        ];
        let _ = done.send(responses);
    });
    let [plain, session, after] = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the overflowing loop hung (or panicked) the request thread");
    for resp in [&plain, &session] {
        let v = parse(resp);
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{resp}");
        assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));
        assert!(resp.contains("loop trip count is absurd"), "{resp}");
    }
    assert_eq!(parse(&after).get("ok"), Some(&Value::Bool(true)), "{after}");
}

/// A loop nest of 1e6 x 1e6 iterations that emits no fluid op passed
/// both the per-loop trip cap and the op cap, and parsing runs on the
/// request thread before any deadline: one such line pinned the stdin
/// front for days. Now the nest goes past the evaluation-wide loop
/// budget (2e6 iterations) when its inner loop starts a second time, as
/// a plain `src` request and as `session.register`, and the glucose
/// line behind it is served. Each request runs the one inner loop it
/// was charged for, a million slot writes: the whole test takes about
/// 0.06 s in a release build and 1 s unoptimized, against limits of 5 s
/// and 30 s here.
#[test]
fn op_free_loop_nest_gets_bad_request_and_the_front_moves_on() {
    let src = "
ASSAY nest START
fluid A, B;
VAR x;
FOR i FROM 1 TO 1000000 START
  FOR j FROM 1 TO 1000000 START
    x = j;
  ENDFOR
ENDFOR
MIX A AND B FOR 5;
END
";
    let input = format!(
        "{{\"id\":1,\"src\":{src}}}\n\
         {{\"id\":2,\"cmd\":\"session.register\",\"src\":{src}}}\n\
         {{\"id\":3,\"src\":{glucose}}}\n",
        src = quote(src),
        glucose = quote(aqua_assays::glucose::SOURCE)
    );
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let svc = Service::new(ServiceConfig::default());
        let mut out = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut out).expect("serve");
        let _ = done.send(String::from_utf8(out).expect("utf8 responses"));
    });
    let limit_s = if cfg!(debug_assertions) { 30 } else { 5 };
    let text = finished
        .recv_timeout(std::time::Duration::from_secs(limit_s))
        .expect("the loop nest held the front past its limit");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for resp in &lines[..2] {
        let v = parse(resp);
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{resp}");
        assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));
        assert!(resp.contains("loop iterations"), "{resp}");
    }
    let glucose = parse(lines[2]);
    assert_eq!(glucose.get("ok"), Some(&Value::Bool(true)), "{}", lines[2]);
}

/// An assay whose LP solution rounds to mix-ratio errors beyond `i128`
/// used to panic the shard's batcher thread in the rounding's error
/// sum: the client waited out its whole deadline for a `timeout`, and
/// every later request on that shard did too. Now the unrepresentable
/// error escalates like any other broken ratio, the request gets its
/// plan well inside the deadline, and the next request is served.
#[test]
fn overflowing_ratio_error_gets_a_plan() {
    let src = "
ASSAY overflow START
fluid in0, in1, in2, m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12;
VAR R[64];
m0 = MIX in1 AND in2 IN RATIOS 8 : 457 FOR 10;
m1 = MIX in2 AND in0 IN RATIOS 17 : 523 FOR 10;
m2 = MIX in2 AND in0 IN RATIOS 27 : 434 FOR 10;
m3 = MIX in0 AND m0 IN RATIOS 9 : 100 FOR 10;
m4 = MIX m1 AND in2 IN RATIOS 37 : 547 FOR 10;
m5 = MIX in2 AND m4 IN RATIOS 13 : 927 FOR 10;
m6 = MIX in1 AND m1 IN RATIOS 22 : 877 FOR 10;
m7 = MIX m0 AND in0 IN RATIOS 22 : 259 FOR 10;
m8 = MIX m0 AND m1 IN RATIOS 4 : 103 FOR 10;
m9 = MIX m3 AND m6 IN RATIOS 1 : 29 FOR 10;
m10 = MIX m3 AND in2 IN RATIOS 20 : 771 FOR 10;
m11 = MIX m0 AND m5 IN RATIOS 15 : 599 FOR 10;
m12 = MIX in2 AND m2 IN RATIOS 21 : 500 FOR 10;
SENSE OPTICAL m7 INTO R[1];
SENSE OPTICAL m8 INTO R[2];
SENSE OPTICAL m9 INTO R[3];
SENSE OPTICAL m10 INTO R[4];
SENSE OPTICAL m11 INTO R[5];
SENSE OPTICAL m12 INTO R[6];
END
";
    let svc = Service::new(ServiceConfig::default());
    let deadline = std::time::Duration::from_secs(20);
    let start = std::time::Instant::now();
    let resp = svc.handle_line(&format!(
        "{{\"id\":1,\"src\":{},\"deadline_ms\":{}}}",
        quote(src),
        deadline.as_millis()
    ));
    assert!(start.elapsed() < deadline / 2, "took {:?}", start.elapsed());
    assert_eq!(parse(&resp).get("ok"), Some(&Value::Bool(true)), "{resp}");
    let resp = svc.handle_line(&format!(
        "{{\"id\":2,\"src\":{}}}",
        quote(aqua_assays::glucose::SOURCE)
    ));
    assert_eq!(parse(&resp).get("ok"), Some(&Value::Bool(true)), "{resp}");
}

/// Tenant quotas shed over-limit tenants with the typed `shedding`
/// error on the wire, without touching other tenants.
#[test]
fn tenant_quota_sheds_on_the_wire() {
    let svc = Service::new(ServiceConfig {
        tenant_max_inflight: 0, // every miss sheds
        ..ServiceConfig::default()
    });
    let resp = svc.handle_line(&format!(
        "{{\"id\":1,\"src\":{},\"tenant\":\"noisy\"}}",
        quote(TINY)
    ));
    let v = parse(&resp);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(v.get("error").and_then(Value::as_str), Some("shedding"));
    assert_eq!(svc.shed_count(), 1);

    // Direct API agrees.
    let machine = Machine::paper_default();
    let canon = Service::canon_src(TINY, &machine).expect("canon");
    assert_eq!(
        svc.submit_canon_tenant(canon, machine, None, "noisy")
            .unwrap_err(),
        ServeError::Shedding
    );
}
