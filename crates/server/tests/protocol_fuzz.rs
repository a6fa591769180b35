//! Panic/robustness audit of the wire protocol, mirroring the SQL front
//! end's fuzz suite: any byte stream a client can send — garbage,
//! truncated, oversized, bit-flipped — must come back as a structured
//! error frame or a clean disconnect. The server must never panic, hang,
//! or allocate unboundedly (frame lengths are capped **before** the
//! payload allocation), and must keep serving well-formed clients after
//! every hostile connection.

use proptest::prelude::*;
use qpe_htap::tpch::TpchConfig;
use qpe_htap::HtapSystem;
use qpe_server::client::Client;
use qpe_server::protocol::{
    read_frame, write_frame, ClientFrame, EnginePref, FrameError, ServerFrame, WireError,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use qpe_server::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One server shared by every fuzz case (never shut down — the static owns
/// it for the life of the test process).
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.0005)));
            Server::start(sys, "127.0.0.1:0", ServerConfig::default()).expect("bind")
        })
        .addr()
}

/// Deterministic byte stream from a seed (the proptest shim generates
/// scalars; bytes derive from an LCG over them).
fn garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// Writes raw bytes to a fresh connection and drains whatever comes back
/// (error frames and/or EOF) under a timeout. The return is every payload
/// the server framed back before closing or going idle.
fn poke(addr: SocketAddr, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // The server may disconnect mid-write (e.g. after an oversized length
    // prefix); a failed write is part of the expected clean-rejection path.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut replies = Vec::new();
    while let Ok(payload) = read_frame(&mut stream) {
        replies.push(payload);
    }
    replies
}

/// Every reply a hostile connection receives must still be a well-formed
/// `ServerFrame` — and an `Error` one at that.
fn assert_structured_errors(replies: &[Vec<u8>]) {
    for payload in replies {
        match ServerFrame::decode(payload) {
            Ok(ServerFrame::Error(_)) => {}
            Ok(other) => panic!("hostile bytes earned a non-error reply: {other:?}"),
            Err(e) => panic!("server sent an undecodable frame: {e}"),
        }
    }
}

/// The server keeps serving well-formed clients after a hostile peer.
fn assert_still_serving(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("server must survive hostile input");
    let stmt = client.prepare("SELECT COUNT(*) FROM customer").expect("prepare");
    let out = client.execute(stmt.stmt_id, &[]).expect("execute");
    assert!(out.rows().is_some());
    client.goodbye().expect("goodbye");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary garbage byte streams: structured error or clean
    /// disconnect, never a panic or a hang, and the server stays up.
    #[test]
    fn server_total_on_garbage(seed in 0u64..1_000_000_000, len in 0usize..600) {
        let addr = server_addr();
        let replies = poke(addr, &garbage(seed, len));
        assert_structured_errors(&replies);
        assert_still_serving(addr);
    }

    /// Prefix-truncations of a valid handshake + statement exchange — the
    /// "connection died mid-frame" shape. No reply is also fine (EOF
    /// mid-frame is a clean disconnect), but any reply must be structured.
    #[test]
    fn server_total_on_truncations(cut in 0usize..200) {
        let mut valid = Vec::new();
        write_frame(&mut valid, &ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            timeout_ns: 0,
            memory_budget: 0,
            engine: EnginePref::Default,
        }.encode()).expect("encode");
        write_frame(&mut valid, &ClientFrame::Prepare {
            sql: "SELECT COUNT(*) FROM customer".into(),
        }.encode()).expect("encode");
        let cut = cut.min(valid.len());
        let addr = server_addr();
        let replies = poke(addr, &valid[..cut]);
        for payload in &replies {
            // Whole frames before the cut get real replies; after the cut
            // only structured errors may follow.
            ServerFrame::decode(payload).expect("well-formed reply");
        }
        assert_still_serving(addr);
    }

    /// Single-bit flips of a valid exchange: CRC (or the length cap, when
    /// the flip lands in the length prefix) catches every one.
    #[test]
    fn server_total_on_bit_flips(bit in 0usize..1000, seed in 0u64..1_000_000) {
        let mut valid = Vec::new();
        write_frame(&mut valid, &ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            timeout_ns: seed, // vary the payload too
            memory_budget: 0,
            engine: EnginePref::Default,
        }.encode()).expect("encode");
        let nbits = valid.len() * 8;
        let bit = bit % nbits;
        valid[bit / 8] ^= 1 << (bit % 8);
        let addr = server_addr();
        let replies = poke(addr, &valid);
        assert_structured_errors(&replies);
        assert_still_serving(addr);
    }

    /// The decoders are total on garbage payloads (no live server needed).
    #[test]
    fn decoders_total_on_garbage(seed in 0u64..1_000_000_000, len in 0usize..300) {
        let payload = garbage(seed, len);
        let _ = ClientFrame::decode(&payload);
        let _ = ServerFrame::decode(&payload);
    }
}

/// A bool travels as exactly 0 or 1: any other byte is malformed rather
/// than a `true` that would re-encode to different bytes.
#[test]
fn non_canonical_bool_is_rejected() {
    assert!(matches!(
        ServerFrame::decode(&[0x86, 0x01]),
        Ok(ServerFrame::CancelOk { matched: true })
    ));
    for b in [0x02u8, 0x80, 0xff] {
        match ServerFrame::decode(&[0x86, b]) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("bool"), "message: {m}"),
            other => panic!("CancelOk carrying {b:02x}: expected Malformed, got {other:?}"),
        }
    }
}

/// An adversarial length prefix (4 GiB claim) is rejected *before* any
/// allocation: the reply is a structured protocol error naming the cap,
/// then a disconnect — and the process obviously hasn't tried to reserve
/// 4 GiB.
#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // Codec level: no payload allocation happens (read_frame returns
    // Oversized straight from the header).
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        read_frame(&mut hostile.as_slice()),
        Err(FrameError::Oversized { len: u32::MAX })
    ));

    // Server level: structured rejection + disconnect, still serving.
    let addr = server_addr();
    let replies = poke(addr, &hostile);
    assert_eq!(replies.len(), 1, "one rejection frame, then disconnect");
    match ServerFrame::decode(&replies[0]) {
        Ok(ServerFrame::Error(WireError::Protocol(m))) => {
            assert!(m.contains("cap") || m.contains("exceeds"), "message: {m}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_still_serving(addr);
}

/// A frame right at the cap boundary: `MAX_FRAME_LEN` itself must be
/// readable (it is the advertised maximum), one past it must not.
#[test]
fn frame_length_cap_is_exact() {
    let payload = vec![0x7u8; 64];
    let mut ok = Vec::new();
    write_frame(&mut ok, &payload).expect("write");
    assert_eq!(read_frame(&mut ok.as_slice()).expect("read"), payload);

    let mut over = Vec::new();
    over.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    over.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        read_frame(&mut over.as_slice()),
        Err(FrameError::Oversized { .. })
    ));
}

/// Out-of-order protocol use on a virgin connection: a frame that is
/// well-formed but premature (no `Hello` yet) earns a structured protocol
/// error and a disconnect, not a hang.
#[test]
fn statement_before_hello_is_a_structured_error() {
    let addr = server_addr();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &ClientFrame::Prepare { sql: "SELECT 1".into() }.encode())
        .expect("encode");
    let replies = poke(addr, &bytes);
    assert_eq!(replies.len(), 1);
    match ServerFrame::decode(&replies[0]) {
        Ok(ServerFrame::Error(WireError::Protocol(m))) => {
            assert!(m.contains("Hello"), "message: {m}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_still_serving(addr);
}

/// A read of a stream that dies mid-payload surfaces as a clean I/O error
/// at the codec level (the client-side mirror of the server's disconnect
/// handling).
#[test]
fn truncated_payload_is_a_clean_io_error() {
    let mut full = Vec::new();
    write_frame(&mut full, &ClientFrame::Goodbye.encode()).expect("encode");
    for cut in 1..full.len() {
        match read_frame(&mut &full[..cut]) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("cut at {cut}: expected EOF error, got {other:?}"),
        }
    }
}

/// Keeping a connection open without sending anything must not wedge the
/// server (handlers poll with a read timeout), and dropping it without
/// `Goodbye` is a clean disconnect.
#[test]
fn idle_and_abandoned_connections_are_harmless() {
    let addr = server_addr();
    {
        let _idle = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(250));
        assert_still_serving(addr);
        // _idle drops here with no Goodbye.
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_still_serving(addr);
}

/// Writes after the server rejected the stream (post-oversize disconnect)
/// fail cleanly client-side rather than blocking.
#[test]
fn writes_to_a_rejected_stream_fail_cleanly() {
    let addr = server_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&hostile).expect("initial write");
    // Drain the rejection + EOF.
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    // Subsequent writes observe the closed peer as an error within a
    // bounded number of attempts (the kernel may buffer the first).
    let mut failed = false;
    for _ in 0..32 {
        if stream.write_all(&[0u8; 1024]).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "writes to a closed stream must start failing");
    assert_still_serving(addr);
}
