//! Integration tests for `mighty serve` — the concurrent optimization
//! service (`DESIGN.md` §15).
//!
//! Everything here drives an in-process [`Server`] over real TCP
//! sockets, exactly as an external client would; the signal-driven
//! shutdown test (which needs a separate process to receive SIGTERM)
//! lives in `crates/mighty/tests/serve_signal.rs`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mig_core::Flow;
use mig_mighty::json::{escape_str, Json};
use mig_mighty::serve::{ServeConfig, Server, MAX_REQUEST_LINE};
use mig_mighty::{run_flow_with, RunOptions};
use mig_netlist::write_verilog;

fn start(workers: usize, cache: usize) -> Server {
    Server::start(&ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: cache,
        drain_ms: 30_000,
    })
    .expect("server starts")
}

/// A tiny line-oriented client.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            writer: BufWriter::new(stream.try_clone().expect("clone")),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(&line).expect("response parses")
    }

    /// Receives until a non-progress line arrives.
    fn recv_final(&mut self) -> Json {
        loop {
            let v = self.recv();
            if v.get_str("type") != Some("progress") {
                return v;
            }
        }
    }
}

/// The local reference: what `mighty opt` emits for the same job.
fn reference_verilog(name: &str, flow: &str, effort: usize) -> String {
    let net = mig_benchgen::generate(name).expect("known benchmark");
    let flow = Flow::parse(flow).expect("flow parses");
    let out = run_flow_with(&net, &flow, effort, 16, 1, &RunOptions::default());
    assert!(out.mig_equiv && out.net_equiv, "reference run verifies");
    write_verilog(&out.optimized)
}

#[test]
fn served_results_are_bit_identical_to_cli_across_concurrent_clients() {
    let jobs = [
        ("my_adder", "size; rewrite"),
        ("count", "size"),
        ("b9", "size; rewrite"),
        ("cla", "depth"),
    ];
    let reference: HashMap<&str, String> = jobs
        .iter()
        .map(|(name, flow)| (*name, reference_verilog(name, flow, 1)))
        .collect();

    // The cache is off, so every job is computed again on a worker
    // context that earlier jobs already used.
    let server = start(2, 0);
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..jobs.len() {
        // Each connection sends two different jobs in sequence.
        let sequence = [jobs[i], jobs[(i + 1) % jobs.len()]];
        let reference = reference.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr);
            for (id, (name, flow)) in sequence.into_iter().enumerate() {
                client.send(&format!(
                    "{{\"id\": {id}, \"netlist\": \"{name}\", \"flow\": \"{flow}\", \"effort\": 1}}"
                ));
                let v = client.recv_final();
                assert_eq!(v.get_str("type"), Some("result"), "{name}");
                assert_eq!(v.get_num("id"), Some(id as f64), "{name}");
                assert_eq!(v.get_num("exit_code"), Some(0.0), "{name}");
                assert_eq!(v.get_bool("cached"), Some(false), "{name}");
                assert_eq!(v.get_bool("mig_equiv"), Some(true), "{name}");
                assert_eq!(v.get_bool("net_equiv"), Some(true), "{name}");
                assert_eq!(
                    v.get_str("verilog"),
                    Some(reference[name].as_str()),
                    "{name}: served result differs from `mighty opt`"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
    assert!(server.wait(), "drain");
}

#[test]
fn slow_drip_request_does_not_stall_other_clients() {
    let expected = reference_verilog("count", "size", 1);
    let server = start(1, 0);
    let addr = server.addr();
    let mut slow = Client::connect(addr);
    let line = "{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}\n";
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    let drip = |client: &mut Client, bytes: &[u8]| {
        for chunk in bytes.chunks(4) {
            client.writer.write_all(chunk).expect("send");
            client.writer.flush().expect("flush");
            thread::sleep(Duration::from_millis(2));
        }
    };
    drip(&mut slow, head);

    // Half a request line is pending on the slow connection; another
    // connection is served in full meanwhile.
    let mut other = Client::connect(addr);
    // A server that waits for the slow line would hang this test.
    other
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    other.send("{\"op\": \"ping\"}");
    assert_eq!(other.recv().get_str("type"), Some("pong"));
    other.send("{\"id\": 2, \"netlist\": \"my_adder\", \"flow\": \"size\", \"effort\": 1}");
    let v = other.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("id"), Some(2.0));
    assert_eq!(v.get_num("exit_code"), Some(0.0));

    drip(&mut slow, tail);
    let v = slow.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("id"), Some(1.0));
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    assert_eq!(
        v.get_str("verilog"),
        Some(expected.as_str()),
        "the dripped job's result differs from `mighty opt`"
    );
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn cache_hit_replays_bit_identical_result() {
    let server = start(1, 16);
    let mut client = Client::connect(server.addr());
    let job = "{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}";
    client.send(job);
    let first = client.recv_final();
    assert_eq!(first.get_bool("cached"), Some(false));
    assert_eq!(first.get_num("exit_code"), Some(0.0));
    client.send(job);
    let second = client.recv_final();
    assert_eq!(second.get_bool("cached"), Some(true), "second run hits");
    assert_eq!(second.get_num("exit_code"), Some(0.0));
    assert_eq!(
        first.get_str("verilog"),
        second.get_str("verilog"),
        "cache replay must be bit-identical"
    );
    assert_eq!(second.get_bool("net_equiv"), Some(true), "hits re-verify");
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn progress_lines_stream_per_pass() {
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    client.send(
        "{\"id\": 9, \"netlist\": \"my_adder\", \"flow\": \"size; rewrite\", \
         \"effort\": 1, \"progress\": true}",
    );
    let mut passes = Vec::new();
    let result = loop {
        let v = client.recv();
        if v.get_str("type") == Some("progress") {
            passes.push(v.get_str("pass").expect("pass name").to_string());
            continue;
        }
        break v;
    };
    assert_eq!(result.get_str("type"), Some("result"));
    assert!(
        passes.iter().any(|p| p == "size") && passes.iter().any(|p| p == "rewrite"),
        "streamed passes {passes:?} should cover the flow"
    );
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn malformed_requests_get_errors_and_the_connection_survives() {
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    // Unparseable JSON.
    client.send("{nope");
    let v = client.recv();
    assert_eq!(v.get_str("type"), Some("error"));
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Missing netlist.
    client.send("{\"id\": 1, \"flow\": \"size\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Unknown benchmark.
    client.send("{\"id\": 2, \"netlist\": \"no_such_bench\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(3.0));
    // Bad Verilog.
    client.send("{\"id\": 3, \"netlist\": \"module broken\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(3.0));
    // Bad flow script.
    client.send("{\"id\": 4, \"netlist\": \"count\", \"flow\": \"warpdrive\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Unknown op.
    client.send("{\"op\": \"dance\"}");
    let v = client.recv();
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    // Sizes over their bounds: a huge `pass*N` would grow the ledger
    // without limit, a huge `rounds` would abort the process on its
    // signature allocation, a huge `effort` would overflow the rewrite
    // round budget. `dalu` has more than 16 inputs, so its equivalence
    // check is the random one that `rounds` sizes.
    for (fields, bound) in [
        ("\"flow\": \"size*1000000000000\"", "at most 64"),
        ("\"flow\": \"size*65\"", "at most 64"),
        ("\"rounds\": 1e12", "`rounds` must be at most 1024"),
        ("\"rounds\": 1025", "`rounds` must be at most 1024"),
        ("\"effort\": 1e18", "`effort` must be at most 64"),
        ("\"effort\": 65", "`effort` must be at most 64"),
    ] {
        client.send(&format!("{{\"id\": 6, \"netlist\": \"dalu\", {fields}}}"));
        let v = client.recv();
        assert_eq!(v.get_str("type"), Some("error"), "{fields}");
        assert_eq!(v.get_num("exit_code"), Some(2.0), "{fields}");
        let message = v.get_str("message").expect("message");
        assert!(message.contains(bound), "{fields}: {message}");
        client.send("{\"op\": \"ping\"}");
        assert_eq!(client.recv().get_str("type"), Some("pong"), "{fields}");
    }
    // The same connection still serves real work afterwards, with
    // `pass*N` and `rounds` at their bounds.
    client.send(
        "{\"id\": 5, \"netlist\": \"count\", \"flow\": \"size*64\", \"rounds\": 1024, \"effort\": 1}",
    );
    let v = client.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn oversized_request_line_is_rejected_and_the_server_survives() {
    let server = start(1, 0);
    let addr = server.addr();
    let mut client = Client::connect(addr);
    // A server that waits for the newline would hang this test.
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    // Exactly the cap, with no newline in it: the line cannot end
    // within the limit. Written in chunks so the client never holds it.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_REQUEST_LINE;
    while left > 0 {
        let n = left.min(chunk.len());
        client.writer.write_all(&chunk[..n]).expect("send");
        left -= n;
    }
    client.writer.flush().expect("flush");
    let v = client.recv();
    assert_eq!(v.get_str("type"), Some("error"));
    assert_eq!(v.get_num("exit_code"), Some(2.0));
    let message = v.get_str("message").expect("message");
    assert!(message.contains(&MAX_REQUEST_LINE.to_string()), "{message}");
    let mut rest = String::new();
    assert_eq!(
        client.reader.read_line(&mut rest).expect("read"),
        0,
        "the connection closes after the error"
    );
    // A new connection is served as before.
    let mut fresh = Client::connect(addr);
    fresh.send("{\"op\": \"ping\"}");
    assert_eq!(fresh.recv().get_str("type"), Some("pong"));
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn a_4_mib_netlist_string_is_answered_promptly() {
    // The request codec takes each run of plain bytes in one step; a
    // scanner that revalidated the rest of the line per character would
    // hold this connection for minutes.
    let server = start(1, 0);
    let addr = server.addr();
    let mut client = Client::connect(addr);
    let limit = Some(Duration::from_secs(10));
    client
        .reader
        .get_ref()
        .set_read_timeout(limit)
        .expect("timeout");
    // Not Verilog (no module keyword) and no benchmark name: an input error.
    let mut netlist = String::new();
    while netlist.len() < 4 << 20 {
        netlist.push_str("assign w = a & b; \"é€\"\t\n");
    }
    let started = Instant::now();
    client.send(&format!(
        "{{\"id\": 9, \"netlist\": \"{}\"}}",
        escape_str(&netlist)
    ));
    // Another connection is served meanwhile.
    let mut other = Client::connect(addr);
    other
        .reader
        .get_ref()
        .set_read_timeout(limit)
        .expect("timeout");
    other.send("{\"op\": \"ping\"}");
    assert_eq!(other.recv().get_str("type"), Some("pong"));
    let v = client.recv();
    let took = started.elapsed();
    assert_eq!(v.get_str("type"), Some("error"));
    assert_eq!(v.get_num("id"), Some(9.0));
    assert_eq!(v.get_num("exit_code"), Some(3.0));
    let message = v.get_str("message").expect("message");
    assert!(message.ends_with("is neither Verilog text nor a known benchmark"));
    assert!(took < Duration::from_secs(10), "answered after {took:?}");
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn deep_netlists_are_served_and_the_server_survives() {
    // Each of these once overflowed the connection thread's stack in the
    // parser and aborted the whole server.
    let mut chain = String::from("module chain(w0, y); input w0; output y; assign y = w20000;\n");
    for i in (1..=20_000).rev() {
        chain.push_str(&format!("wire w{i}; assign w{i} = ~w{};\n", i - 1));
    }
    chain.push_str("endmodule\n");
    let parens = format!(
        "module deep(a, b, y); input a, b; output y; assign y = {}a ^ b{}; endmodule",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let server = start(1, 0);
    let mut client = Client::connect(server.addr());
    for (id, text) in [(1, chain), (2, parens)] {
        client.send(&format!(
            "{{\"id\": {id}, \"netlist\": \"{}\", \"flow\": \"size\", \"effort\": 1}}",
            escape_str(&text)
        ));
        let v = client.recv_final();
        assert_eq!(v.get_str("type"), Some("result"), "job {id}");
        assert_eq!(v.get_num("exit_code"), Some(0.0), "job {id}");
    }
    client.send("{\"op\": \"ping\"}");
    assert_eq!(client.recv().get_str("type"), Some("pong"));
    server.shutdown();
    assert!(server.wait());
}

#[test]
fn mid_job_disconnect_does_not_kill_the_server() {
    let server = start(1, 0);
    let addr = server.addr();
    {
        // Submit a job and slam the connection shut before the result
        // can be written.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut w = BufWriter::new(stream.try_clone().expect("clone"));
        writeln!(
            w,
            "{{\"id\": 1, \"netlist\": \"alu4\", \"flow\": \"size; rewrite\", \"effort\": 2}}"
        )
        .expect("send");
        w.flush().expect("flush");
        stream
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown socket");
    }
    // The orphaned job must still run (and its result be dropped)
    // without poisoning the worker: a fresh client gets served.
    let mut client = Client::connect(addr);
    client.send("{\"id\": 2, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
    let v = client.recv_final();
    assert_eq!(v.get_str("type"), Some("result"));
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    server.shutdown();
    assert!(server.wait(), "drain includes the orphaned job");
}

#[test]
fn ping_stats_and_wire_shutdown() {
    let server = start(1, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr);
    client.send("{\"op\": \"ping\"}");
    assert_eq!(client.recv().get_str("type"), Some("pong"));
    client.send("{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
    let v = client.recv_final();
    assert_eq!(v.get_num("exit_code"), Some(0.0));
    let mut client2 = Client::connect(addr);
    client2.send("{\"op\": \"stats\"}");
    let st = client2.recv();
    assert_eq!(st.get_str("type"), Some("stats"));
    assert!(st.get_num("jobs_done") >= Some(1.0));
    assert!(st.get_num("connections") >= Some(2.0));
    client2.send("{\"op\": \"shutdown\"}");
    assert_eq!(client2.recv().get_str("type"), Some("shutting_down"));
    assert!(server.wait(), "wire shutdown drains and exits");
    // New connections are refused after shutdown.
    thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// MIG_FAULTS-armed: a job whose passes panic degrades (the pass
/// manager rolls the pass back) while the server keeps serving.
#[cfg(feature = "faultpoints")]
mod fault_injection {
    use super::*;
    use mig_suite::mig::faultpoint;

    #[test]
    fn injected_panic_job_degrades_without_killing_the_server() {
        // Every rewrite commit panics: the pass manager rolls each one
        // back, so the job completes degraded but verified.
        faultpoint::configure("rewrite.commit:panic:1:1").expect("valid plan");
        let server = start(1, 0);
        let mut client = Client::connect(server.addr());
        client.send(
            "{\"id\": 1, \"netlist\": \"count\", \"flow\": \"size; rewrite\", \"effort\": 1}",
        );
        let v = client.recv_final();
        faultpoint::clear();
        assert_eq!(v.get_str("type"), Some("result"));
        assert_eq!(v.get_num("exit_code"), Some(5.0), "degraded completion");
        assert_eq!(v.get_bool("degraded"), Some(true));
        assert_eq!(v.get_bool("mig_equiv"), Some(true), "rollback preserved");
        assert_eq!(v.get_bool("net_equiv"), Some(true));
        // The worker survived: an un-faulted job still runs clean.
        client.send("{\"id\": 2, \"netlist\": \"count\", \"flow\": \"size\", \"effort\": 1}");
        let v = client.recv_final();
        assert_eq!(v.get_num("exit_code"), Some(0.0), "server recovered");
        server.shutdown();
        assert!(server.wait());
    }
}
