//! `Prepared` and `Execute` count parameters in a `u16`. A statement with
//! more placeholders than that count can carry must fail with a typed error
//! on the side that would build the frame, never as a frame the peer cannot
//! read.

use qpe_htap::tpch::TpchConfig;
use qpe_htap::HtapSystem;
use qpe_server::client::{Client, ClientError};
use qpe_server::protocol::{SqlStage, WireError, MAX_PARAMS};
use qpe_server::server::{Server, ServerConfig};
use qpe_sql::value::Value;
use std::sync::Arc;

fn start() -> Server {
    let sys = Arc::new(HtapSystem::new(&TpchConfig::with_scale(0.0005)));
    Server::start(sys, "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

/// `SELECT ... WHERE c_custkey IN (?, ?, ...)` with `n` placeholders.
fn in_list_sql(n: usize) -> String {
    format!("SELECT c_name FROM customer WHERE c_custkey IN ({})", vec!["?"; n].join(", "))
}

/// The connection still prepares and executes an ordinary statement.
fn assert_usable(client: &mut Client) {
    let stmt = client.prepare("SELECT c_name FROM customer WHERE c_custkey = ?").expect("prepare");
    let out = client.execute(stmt.stmt_id, &[Value::Int(1)]).expect("execute");
    assert_eq!(out.rows().expect("a query").rows.len(), 1);
}

#[test]
fn server_refuses_to_prepare_more_parameters_than_the_wire_counts() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.prepare(&in_list_sql(MAX_PARAMS + 1)) {
        Err(ClientError::Server(WireError::Sql { stage: SqlStage::Unsupported, message, .. })) => {
            assert!(message.contains(&(MAX_PARAMS + 1).to_string()), "{message}");
        }
        other => panic!("wanted a typed Unsupported error, got {other:?}"),
    }
    assert_usable(&mut client);
    // The widest statement the count can carry still prepares.
    let widest = client.prepare(&in_list_sql(MAX_PARAMS)).expect("prepare at the limit");
    assert_eq!(widest.param_types.len(), MAX_PARAMS);
}

#[test]
fn client_refuses_to_send_more_parameters_than_the_wire_counts() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let stmt = client.prepare("SELECT c_name FROM customer WHERE c_custkey = ?").expect("prepare");
    let params = vec![Value::Int(1); MAX_PARAMS + 2];
    match client.execute(stmt.stmt_id, &params) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        other => panic!("wanted the client to refuse the frame, got {other:?}"),
    }
    // Nothing reached the server: no protocol error, and the session goes on.
    assert_eq!(client.stats().expect("stats").protocol_errors, 0);
    assert_usable(&mut client);
}
