//! Protocol robustness: every malformed, hostile, or unlucky input must
//! produce a typed error (or a clean close) — never a panic, never a
//! wedged server. Each test finishes by proving the server still drains.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dbtf::{random_factor_sets, DbtfConfig, FactorSet};
use dbtf_serve::{
    ClientError, FactorStore, QueryMix, Request, SeededQueries, ServeClient, ServeHarness,
    ServeLimits, ServerConfig,
};
use dbtf_telemetry::JsonValue;

const DIMS: [usize; 3] = [24, 20, 16];

fn factors() -> FactorSet {
    let cfg = DbtfConfig {
        seed: 11,
        ..DbtfConfig::with_rank(4)
    };
    random_factor_sets(DIMS, 0.35, &cfg).remove(0)
}

fn harness() -> ServeHarness {
    ServeHarness::start(FactorStore::from_factor_set(1, &factors()))
}

fn harness_with(limits: ServeLimits) -> ServeHarness {
    ServeHarness::start_with(
        FactorStore::from_factor_set(1, &factors()),
        ServerConfig {
            cache_fibers: 16,
            limits,
            ..ServerConfig::default()
        },
    )
}

/// Extracts the typed server error or panics with what we got instead.
fn server_code(result: Result<impl std::fmt::Debug, ClientError>) -> String {
    match result {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a typed server error, got {other:?}"),
    }
}

/// Sends one raw request line and checks the parsed reply (no id).
fn typed(client: &mut ServeClient, line: &str) -> Result<JsonValue, ClientError> {
    let reply = client.raw_line(line).unwrap();
    let value = JsonValue::parse(&reply).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"));
    dbtf_serve::harness::check_reply(&value, None)
}

#[test]
fn malformed_json_gets_parse_error_and_connection_survives() {
    let harness = harness();
    let mut client = harness.client();
    for garbage in ["{not json", "]", "{\"q\":}", "nul\u{0}l"] {
        let reply = client.raw_line(garbage).unwrap();
        assert!(reply.contains("\"ok\":false"), "{garbage:?} → {reply}");
        assert!(
            reply.contains("\"code\":\"parse\""),
            "{garbage:?} → {reply}"
        );
    }
    // Valid JSON that is not an object is well-formed but ill-shaped.
    let reply = client.raw_line("\"just a string\"").unwrap();
    assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
    // The same connection still answers real queries afterwards.
    assert!(client.ping().is_ok());
    assert_eq!(
        harness.metrics().parse_errors.load(Ordering::Relaxed),
        4,
        "each garbage line counted once"
    );
    assert!(harness.shutdown());
}

#[test]
fn unknown_query_kind_and_missing_fields_are_typed() {
    let harness = harness();
    let mut client = harness.client();
    assert_eq!(
        server_code(typed(&mut client, "{\"q\":\"explode\"}")),
        "unknown_query"
    );
    assert_eq!(
        server_code(typed(&mut client, "{\"q\":\"point\",\"i\":1,\"j\":2}")),
        "bad_request"
    );
    assert_eq!(server_code(typed(&mut client, "{\"i\":1}")), "bad_request");
    assert_eq!(
        server_code(typed(
            &mut client,
            "{\"q\":\"point\",\"i\":1,\"j\":2,\"k\":-3}"
        )),
        "bad_request"
    );
    assert!(client.ping().is_ok());
    assert!(harness.shutdown());
}

#[test]
fn out_of_range_indices_are_typed_not_panics() {
    let harness = harness();
    let mut client = harness.client();
    assert_eq!(server_code(client.point(DIMS[0], 0, 0)), "out_of_range");
    assert_eq!(server_code(client.point(0, DIMS[1], 0)), "out_of_range");
    assert_eq!(server_code(client.point(0, 0, DIMS[2])), "out_of_range");
    assert_eq!(server_code(client.slice(1, DIMS[1], 0)), "out_of_range");
    assert_eq!(server_code(client.topk(3, DIMS[2], 4)), "out_of_range");
    // Wire mode 0 and 4 are outside the 1..=3 wire range.
    assert_eq!(
        server_code(typed(
            &mut client,
            "{\"q\":\"topk\",\"mode\":0,\"entity\":0,\"k\":1}"
        )),
        "out_of_range"
    );
    assert_eq!(
        server_code(typed(
            &mut client,
            "{\"q\":\"topk\",\"mode\":4,\"entity\":0,\"k\":1}"
        )),
        "out_of_range"
    );
    // In-range queries on the same connection still work.
    assert!(client.point(0, 0, 0).is_ok());
    assert_eq!(
        harness
            .metrics()
            .out_of_range_errors
            .load(Ordering::Relaxed),
        7
    );
    assert!(harness.shutdown());
}

#[test]
fn oversized_line_gets_typed_reply_then_close() {
    let harness = harness_with(ServeLimits {
        max_line_bytes: 256,
        max_batch: 16,
    });
    let mut client = harness.client();
    let huge = format!("{{\"q\":\"point\",\"pad\":\"{}\"}}", "x".repeat(1024));
    client.send_raw(format!("{huge}\n").as_bytes()).unwrap();
    let reply = client.read_reply_line().unwrap();
    assert!(reply.contains("\"code\":\"oversized\""), "{reply}");
    // After the typed reply the stream position is unknowable, so the
    // server closes: the next read sees EOF.
    assert!(matches!(client.read_reply_line(), Err(ClientError::Io(_))));
    assert_eq!(
        harness.metrics().oversized_errors.load(Ordering::Relaxed),
        1
    );
    // A fresh connection is unaffected.
    assert!(harness.client().ping().is_ok());
    assert!(harness.shutdown());
}

/// A line near the default 1 MiB limit holding one long string gets its
/// typed reply within 2 s: request parsing is linear in the line length,
/// so one such line cannot hold a connection thread for long.
#[test]
fn near_limit_string_line_is_answered_promptly() {
    let harness = harness();
    let mut client = harness.client();
    let line = format!("{{\"q\":\"point\",\"pad\":\"{}\"}}", "x".repeat(1_000_000));
    assert!(line.len() < ServeLimits::default().max_line_bytes);
    let started = Instant::now();
    let code = server_code(typed(&mut client, &line));
    let elapsed = started.elapsed();
    assert_eq!(code, "bad_request");
    assert!(elapsed < Duration::from_secs(2), "reply took {elapsed:?}");
    assert!(client.ping().is_ok());
    assert!(harness.shutdown());
}

#[test]
fn batch_over_limit_is_one_error_object() {
    let harness = harness_with(ServeLimits {
        max_line_bytes: 1 << 20,
        max_batch: 4,
    });
    let mut client = harness.client();
    let bodies: Vec<String> = (0..8)
        .map(|n| format!("{{\"id\":{n},\"q\":\"ping\"}}"))
        .collect();
    let replies = client.batch(&bodies).unwrap();
    // Over-limit batches are refused with a single non-array object.
    assert_eq!(replies.len(), 1);
    let code = match dbtf_serve::harness::check_reply(&replies[0], None) {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("{other:?}"),
    };
    assert_eq!(code, "batch_limit");
    // An in-limit batch with a bad element answers element-wise.
    let mixed = vec![
        "{\"id\":0,\"q\":\"ping\"}".to_string(),
        "{\"id\":1,\"q\":\"nope\"}".to_string(),
        "{\"id\":2,\"q\":\"point\",\"i\":0,\"j\":0,\"k\":0}".to_string(),
    ];
    let replies = client.batch(&mixed).unwrap();
    assert_eq!(replies.len(), 3);
    assert!(dbtf_serve::harness::check_reply(&replies[0], Some(0)).is_ok());
    assert!(matches!(
        dbtf_serve::harness::check_reply(&replies[1], Some(1)),
        Err(ClientError::Server { code, .. }) if code == "unknown_query"
    ));
    assert!(dbtf_serve::harness::check_reply(&replies[2], Some(2)).is_ok());
    assert!(harness.shutdown());
}

#[test]
fn truncated_frame_and_midrequest_disconnect_do_not_wedge() {
    let harness = harness();
    // Half a request, then the client vanishes.
    {
        let mut client = harness.client();
        client.send_raw(b"{\"q\":\"point\",\"i\":1,").unwrap();
        // Dropping the client closes the socket mid-line.
    }
    // A whole unterminated line, then disconnect.
    {
        let mut client = harness.client();
        client.send_raw(b"{\"q\":\"ping\"}").unwrap();
    }
    // The server noticed both truncations and still serves.
    let mut probe = harness.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let truncated = probe.counter("serve.lines.truncated").unwrap();
        if truncated >= 2.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "truncation never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(probe.point(0, 0, 0).is_ok());
    assert!(harness.shutdown());
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let factors = factors();
    let recon = dbtf_oracle::cp_reconstruct(&factors.a, &factors.b, &factors.c);
    let harness = ServeHarness::start(FactorStore::from_factor_set(1, &factors));
    let addr = harness.addr();
    let recon = std::sync::Arc::new(recon);
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let recon = recon.clone();
            std::thread::spawn(move || {
                let mut client = dbtf_serve::ServeClient::connect(addr).unwrap();
                let sweep = SeededQueries::new(1000 + w, DIMS, QueryMix::points_only());
                for request in sweep.take(200) {
                    let Request::Point { i, j, k } = request else {
                        unreachable!()
                    };
                    assert_eq!(
                        client.point(i, j, k).unwrap(),
                        dbtf_oracle::serving_point(&recon, i, j, k),
                        "worker {w}: point {i},{j},{k}"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("concurrent client panicked");
    }
    let m = harness.metrics();
    assert_eq!(m.point_queries.load(Ordering::Relaxed), 8 * 200);
    assert_eq!(m.connections_opened.load(Ordering::Relaxed), 8);
    assert!(harness.shutdown());
}

#[test]
fn drain_refuses_new_queries_but_acknowledges() {
    let harness = harness();
    let mut first = harness.client();
    assert!(first.ping().is_ok());
    first.shutdown().unwrap();
    assert!(harness.is_draining());
    // The shutdown connection was closed after the acknowledgement.
    assert!(matches!(first.read_reply_line(), Err(ClientError::Io(_))));
    // A connection racing the drain either fails to connect or gets a
    // typed `draining` refusal — never a hang.
    if let Ok(mut late) = dbtf_serve::ServeClient::connect(harness.addr()) {
        match late.ping() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "draining"),
            Err(ClientError::Io(_)) => {} // closed before the reply — also clean
            other => panic!("draining server answered {other:?}"),
        }
    }
    assert!(harness.shutdown(), "drain completes");
}

#[test]
fn reload_failures_are_typed_and_leave_the_serving_generation_alone() {
    let dir = std::env::temp_dir().join("dbtf-serve-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = |name: &str| dir.join(format!("{name}-{}", std::process::id()));

    let harness = harness();
    let mut client = harness.client();
    let v0 = client.info().unwrap().set_version;

    // Unopenable store path.
    assert_eq!(
        server_code(client.reload("/definitely/not/here.dbtfs", None, None)),
        "reload"
    );
    // Unknown source kind, checked before any file I/O.
    assert_eq!(
        server_code(client.reload("whatever.dbtfs", Some("floppy"), None)),
        "reload"
    );
    // A store whose dimensions do not match the serving space.
    let cfg = DbtfConfig {
        seed: 3,
        ..DbtfConfig::with_rank(4)
    };
    let misshapen = random_factor_sets([4, 4, 4], 0.4, &cfg).remove(0);
    let bad_path = tmp("misshapen.dbtfs");
    FactorStore::write_store(&bad_path, 9, &misshapen).unwrap();
    match client.reload(bad_path.to_str().unwrap(), None, None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "reload");
            assert!(message.contains("dims mismatch"), "{message}");
        }
        other => panic!("expected dims-mismatch refusal, got {other:?}"),
    }
    // A good store paired with an unreadable delta file.
    let good_path = tmp("good.dbtfs");
    FactorStore::write_store(&good_path, 2, &factors()).unwrap();
    assert_eq!(
        server_code(client.reload(good_path.to_str().unwrap(), None, Some("/no/such.delta"))),
        "reload"
    );
    // ...and with a delta that does not parse.
    let bad_delta = tmp("bad.delta");
    std::fs::write(&bad_delta, "+ 1 2\n").unwrap();
    assert_eq!(
        server_code(client.reload(
            good_path.to_str().unwrap(),
            None,
            Some(bad_delta.to_str().unwrap()),
        )),
        "reload"
    );

    // Five refusals, zero swaps: the serving generation never moved and
    // the connection still answers.
    assert_eq!(client.info().unwrap().set_version, v0);
    let m = harness.metrics();
    assert_eq!(m.reload_requests.load(Ordering::Relaxed), 5);
    assert_eq!(m.reload_errors.load(Ordering::Relaxed), 5);
    assert!(client.ping().is_ok());

    // A valid reload still works after all those failures...
    let (set_version, generation, _) = client
        .reload(good_path.to_str().unwrap(), None, None)
        .unwrap();
    assert_eq!((set_version, generation), (2, 1));
    // ...and once draining, reload is refused like any other query.
    client.shutdown().unwrap();
    if let Ok(mut late) = dbtf_serve::ServeClient::connect(harness.addr()) {
        match late.reload(good_path.to_str().unwrap(), None, None) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "draining"),
            Err(ClientError::Io(_)) => {} // closed before the reply — also clean
            other => panic!("draining server answered reload with {other:?}"),
        }
    }
    assert!(harness.shutdown());
    for path in [bad_path, good_path, bad_delta] {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn random_byte_noise_never_panics_the_server() {
    let harness = harness();
    // Deterministic pseudo-noise: every printable/unprintable mix the
    // LCG produces must be survivable.
    let mut state = 0x9e3779b97f4a7c15u64;
    for _ in 0..32 {
        let mut client = harness.client();
        let mut line = Vec::new();
        for _ in 0..64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let byte = (state >> 33) as u8;
            if byte != b'\n' {
                line.push(byte);
            }
        }
        line.push(b'\n');
        client.send_raw(&line).unwrap();
        // Whatever happened, it was a reply or a close — not a hang.
        match client.read_reply_line() {
            Ok(reply) => assert!(reply.contains("\"ok\":false"), "{reply}"),
            Err(ClientError::Io(_)) => {}
            Err(other) => panic!("{other:?}"),
        }
    }
    assert!(harness.client().ping().is_ok(), "server survives the noise");
    assert!(harness.shutdown());
}
