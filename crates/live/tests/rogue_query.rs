//! A well-formed uplink query for an item outside the database, from a
//! peer that never registered, costs that peer its connection and
//! nothing else: the codec admits any `id_bits`-wide id (8 bits for
//! 150 items), so the server must refuse the rest before it indexes
//! the database under the core mutex the ticker needs.
//!
//! No timers decide the outcome: the rogue peer is served while the
//! server still waits for its one client, and the session is lockstep.

use std::io::BufReader;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use sleepers::{CellConfig, Strategy};
use sw_live::{run_mu, LiveOptions, LiveServer, Msg, MuOptions};
use sw_wireless::frame::{seal_frame, FramePayload, WireEncode};
use sw_workload::ScenarioParams;

const N_ITEMS: u64 = 150;

fn rogue_query_is_refused(item: u64) {
    let intervals = 40u64;
    let mut params = ScenarioParams::scenario1().with_s(0.0);
    params.n_items = N_ITEMS;
    params.mu = 2e-3;
    params.k = 8;
    let cfg = CellConfig::new(params)
        .with_clients(1)
        .with_hotspot_size(15)
        .with_seed(0x0BAD_001D + item);
    let handle = LiveServer::spawn(
        cfg.clone(),
        Strategy::BroadcastTimestamps,
        LiveOptions::lockstep(intervals),
    )
    .expect("spawn live server");
    let addr = handle.addr();

    // The rogue peer: no Hello, one sealed query.
    let encode = WireEncode::new(
        params.n_items,
        params.timestamp_bits,
        params.query_bits,
        params.answer_bits,
    );
    let query = FramePayload::UplinkQuery { client: 0, item };
    let frame = seal_frame(0, encode.serialize_payload(&query));
    let mut rogue = TcpStream::connect(addr).expect("rogue connects");
    rogue
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    Msg::Query { frame }
        .write_to(&mut rogue)
        .expect("the query itself is well-formed and sends");
    let reply = Msg::read_from(&mut BufReader::new(&rogue));
    assert!(
        reply.is_err(),
        "item {item} of {N_ITEMS}: the server answered {reply:?} instead of hanging up"
    );

    // The server is waited on first: were the ticker to die, `wait`
    // reports it and severs the client instead of leaving it blocked.
    let honest = {
        let cfg = cfg.clone();
        thread::spawn(move || {
            run_mu(
                addr,
                &cfg,
                Strategy::BroadcastTimestamps,
                0,
                MuOptions::default(),
            )
        })
    };
    let server = handle
        .wait()
        .expect("the broadcast survives the rogue peer");
    let report = honest
        .join()
        .expect("client thread")
        .expect("the honest session survives the rogue peer");
    assert_eq!(server.intervals, intervals, "the session was cut short");
    assert_eq!(report.reports_missed, 0, "the honest unit lost reports");
    assert_eq!(report.reports_heard, intervals);
}

#[test]
fn query_for_the_first_item_past_the_universe_closes_only_that_connection() {
    rogue_query_is_refused(N_ITEMS);
}

#[test]
fn query_for_the_largest_encodable_id_closes_only_that_connection() {
    // 150 items take 8 id bits: 255 is the widest id the codec carries.
    rogue_query_is_refused(255);
}
