//! Integration tests of the TCP ingress: protocol discipline, malformed-frame
//! isolation and transport equivalence against the in-process fast path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use spindle::cluster::ClusterSpec;
use spindle::graph::{ComputationGraph, GraphBuilder, Modality, OpKind, TensorShape};
use spindle::service::{
    proto, ErrorCode, FrameDecoder, LocalClient, Response, ServiceApi, ServiceConfig, TcpClient,
    TcpIngress, PROTO_VERSION,
};

fn graph(batch: u32) -> Arc<ComputationGraph> {
    let mut b = GraphBuilder::new();
    let t = b.add_task("t", [Modality::Vision, Modality::Text], batch);
    let tower = b
        .add_op_chain(
            t,
            OpKind::Encoder(Modality::Vision),
            TensorShape::new(batch, 197, 768),
            4,
        )
        .unwrap();
    let loss = b
        .add_op(t, OpKind::ContrastiveLoss, TensorShape::new(batch, 1, 768))
        .unwrap();
    b.add_flow(*tower.last().unwrap(), loss).unwrap();
    Arc::new(b.build().unwrap())
}

fn ingress() -> TcpIngress {
    TcpIngress::bind(
        "127.0.0.1:0",
        ClusterSpec::homogeneous(1, 8),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback ingress")
}

/// Reads raw frames off a hand-driven socket until one decodes, with a
/// deadline so protocol bugs fail the test instead of hanging it.
fn read_response(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Option<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(payload) = decoder.next_frame().expect("client-side framing") {
            return Some(Response::decode(&payload).expect("server sent a valid response"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(_) => return None,
        }
    }
}

#[test]
fn hello_is_required_before_anything_else() {
    let ingress = ingress();
    let mut stream = TcpStream::connect(ingress.local_addr()).unwrap();
    // A Stats request before Hello draws HelloRequired and a close.
    stream
        .write_all(&spindle::service::Request::Stats.encode())
        .unwrap();
    let mut decoder = FrameDecoder::new();
    match read_response(&mut stream, &mut decoder) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::HelloRequired),
        other => panic!("expected HelloRequired error, got {other:?}"),
    }
    assert_eq!(read_response(&mut stream, &mut decoder), None, "closed");
    ingress.shutdown();
}

#[test]
fn version_mismatch_is_rejected() {
    let ingress = ingress();
    let mut stream = TcpStream::connect(ingress.local_addr()).unwrap();
    stream
        .write_all(
            &spindle::service::Request::Hello {
                proto_version: PROTO_VERSION + 1,
            }
            .encode(),
        )
        .unwrap();
    let mut decoder = FrameDecoder::new();
    match read_response(&mut stream, &mut decoder) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion error, got {other:?}"),
    }
    ingress.shutdown();
}

/// Opens a raw connection and completes the `Hello` handshake.
fn hello(addr: std::net::SocketAddr) -> (TcpStream, FrameDecoder) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            &spindle::service::Request::Hello {
                proto_version: PROTO_VERSION,
            }
            .encode(),
        )
        .unwrap();
    let mut decoder = FrameDecoder::new();
    assert!(matches!(
        read_response(&mut stream, &mut decoder),
        Some(Response::HelloAck { .. })
    ));
    (stream, decoder)
}

#[test]
fn malformed_frames_kill_only_their_connection() {
    let ingress = ingress();
    let addr = ingress.local_addr();

    // A healthy client connects first and keeps working throughout.
    let mut good = TcpClient::connect(addr).expect("good client connects");

    // Bad client 1: valid Hello, then an unknown tag.
    let (mut bad, mut decoder) = hello(addr);
    bad.write_all(&[1, 0, 0, 0, 0x7f]).unwrap(); // frame: len 1, unknown tag
    match read_response(&mut bad, &mut decoder) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed error, got {other:?}"),
    }
    assert_eq!(read_response(&mut bad, &mut decoder), None, "closed");

    // Bad client 2: an oversized length prefix is rejected at the header.
    let (mut huge, mut decoder) = hello(addr);
    huge.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match read_response(&mut huge, &mut decoder) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed error, got {other:?}"),
    }

    // Bad client 3: a truncated frame (announced longer than sent, then the
    // connection goes away) leaves no residue — the server just reaps it.
    let mut trunc = TcpStream::connect(addr).unwrap();
    trunc.write_all(&[200, 0, 0, 0, 0x02, 1, 2, 3]).unwrap();
    drop(trunc);

    // Bad client 4 and client 5 patch a SubmitGraph frame of `graph(8)`. Op
    // 0's id sits at byte 37, after the length, tag and tenant (13), the
    // task list (4 + 16 for task "t" with two modalities) and the op count
    // (4); its dimensions sit 10 bytes later, after kind, modality and task.
    let valid = spindle::service::Request::SubmitGraph {
        tenant: 9,
        graph: graph(8),
    }
    .encode();
    assert_eq!(valid[47..51], 8u32.to_le_bytes(), "op 0's batch");
    // Bad client 4: op 0 claims id 3, which every build refuses.
    let mut misplaced = valid.clone();
    misplaced[37] = 3;
    let (mut bad, mut decoder) = hello(addr);
    bad.write_all(&misplaced).unwrap();
    match read_response(&mut bad, &mut decoder) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed error, got {other:?}"),
    }
    assert_eq!(read_response(&mut bad, &mut decoder), None, "closed");
    // Client 5: op 0 is u32::MAX wide in every dimension. Its costs travel
    // on the wire, so the graph is valid and plans; pricing its shape must
    // saturate rather than overflow.
    let mut vast = valid;
    vast[47..59].fill(0xff);
    let (mut wide, mut decoder) = hello(addr);
    wide.write_all(&vast).unwrap();
    let accepted = read_response(&mut wide, &mut decoder);
    assert!(matches!(accepted, Some(Response::Accepted { tenant: 9 })));
    let planned = read_response(&mut wide, &mut decoder);
    assert!(matches!(
        planned,
        Some(Response::PlanReady { error: None, .. })
    ));

    // The good client still plans, the workers never noticed any of it.
    good.submit(7, &graph(8))
        .expect("good client still accepted");
    let done = good
        .poll_completion(Duration::from_secs(30))
        .expect("good client still gets completions");
    assert_eq!(done.tenant, 7);
    let summary = done.result.expect("plan succeeds");
    assert!(summary.num_waves > 0);

    let (stats, _) = good.finish();
    assert_eq!(stats.errors, 0, "malformed frames never reach a worker");
    assert_eq!(stats.submitted, 2, "the good client's graph and client 5's");
    ingress.shutdown();
}

#[test]
fn transports_produce_bit_identical_plans() {
    // The same three-tenant trace through both transports: every tenant's
    // final plan fingerprint must match bit for bit.
    let trace: Vec<(u64, Arc<ComputationGraph>)> = vec![
        (0, graph(8)),
        (1, graph(16)),
        (2, graph(32)),
        (0, graph(24)),
        (1, graph(8)),
    ];
    let mut local = LocalClient::start(
        ClusterSpec::homogeneous(1, 8),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..ServiceConfig::default()
        },
    );
    for (tenant, graph) in &trace {
        local.submit(*tenant, graph).expect("local accepts");
    }
    let (local_stats, local_done) = local.finish();

    let ingress = ingress();
    let mut tcp = TcpClient::connect(ingress.local_addr()).expect("connect");
    for (tenant, graph) in &trace {
        tcp.submit(*tenant, graph).expect("tcp accepts");
    }
    let (tcp_stats, tcp_done) = tcp.finish();
    ingress.shutdown();

    assert_eq!(local_stats.errors, 0);
    assert_eq!(tcp_stats.errors, 0);
    assert_eq!(local_stats.submitted, 5);
    assert_eq!(tcp_stats.submitted, 5);

    let finals = |done: &[spindle::service::ApiCompletion]| {
        let mut map = std::collections::BTreeMap::new();
        for c in done {
            map.insert(c.tenant, c.result.as_ref().expect("plans").plan_fingerprint);
        }
        map
    };
    let local_fp = finals(&local_done);
    let tcp_fp = finals(&tcp_done);
    assert_eq!(local_fp.len(), 3);
    assert_eq!(local_fp, tcp_fp, "transports diverged on final plans");
}

#[test]
fn stats_and_topology_flow_over_the_wire() {
    let ingress = ingress();
    let mut client = TcpClient::connect(ingress.local_addr()).expect("connect");
    client.submit(3, &graph(8)).unwrap();
    let done = client
        .poll_completion(Duration::from_secs(30))
        .expect("completion");
    assert!(done.result.is_ok());

    // A topology change over the wire re-plans the tenant on the survivors.
    let workers = client
        .submit_topology(&[spindle::cluster::DeviceId(7)], &[])
        .expect("topology broadcast");
    assert_eq!(workers, 1);
    let done = client
        .poll_completion(Duration::from_secs(30))
        .expect("topology completion");
    assert!(done.topology_change);
    assert!(done.result.is_ok());

    let (stats, rest) = client.finish();
    assert!(rest.is_empty());
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.topology_replans, 1);
    assert_eq!(stats.errors, 0);
    ingress.shutdown();
}

#[test]
fn graph_wire_len_matches_encoded_length_for_fleet_graphs() {
    // The throttle charges `graph_wire_len` without encoding; the figure
    // must equal the graph's share of a real SubmitGraph frame, which adds
    // 13 header bytes: 4 of length, 1 of tag and 8 of tenant.
    for batch in [1u32, 8, 64] {
        let graph = graph(batch);
        let frame = spindle::service::Request::SubmitGraph {
            tenant: 1,
            graph: Arc::clone(&graph),
        }
        .encode();
        assert_eq!(
            frame.len() - 13,
            proto::graph_wire_len(&graph),
            "batch {batch}"
        );
    }
}

/// The acceptor loop backs off adaptively when idle (yield burst, then
/// sleeps doubling up to a 2 ms cap), so a bound-but-quiet ingress must burn
/// almost no CPU. Measured per-thread via `/proc`, so concurrent tests in
/// this binary cannot pollute the reading.
#[cfg(target_os = "linux")]
#[test]
fn idle_ingress_burns_almost_no_cpu() {
    fn ingress_thread_jiffies() -> Option<u64> {
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
            if comm.trim_end() != "spindle-ingress" {
                continue;
            }
            let stat = std::fs::read_to_string(path.join("stat")).ok()?;
            // Skip past the parenthesised comm; the remainder is
            // whitespace-separated with state first, utime/stime at overall
            // fields 14 and 15.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            return Some(utime + stime);
        }
        None
    }

    let ingress = ingress();
    let mut client = TcpClient::connect(ingress.local_addr()).expect("connect");
    client.submit(1, &graph(8)).expect("submit");
    client
        .poll_completion(Duration::from_secs(30))
        .expect("completion");
    // Let the acceptor escalate past its yield burst before sampling.
    std::thread::sleep(Duration::from_millis(100));
    let before = ingress_thread_jiffies().expect("ingress thread visible in /proc");
    std::thread::sleep(Duration::from_millis(500));
    let after = ingress_thread_jiffies().expect("ingress thread visible in /proc");
    // 500 ms is 50 jiffies at the usual USER_HZ=100. The old fixed 200 µs
    // poll woke 5000 times a second; the adaptive backoff parks in capped
    // naps, so even a generous bound of ~15% of a core must hold.
    assert!(
        after - before <= 8,
        "idle acceptor used {} jiffies over 500 ms",
        after - before
    );
    ingress.shutdown();
}
