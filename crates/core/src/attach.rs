//! The live-cockpit client behind `fireaxe attach <addr>`.
//!
//! Connects to a coordinator's control listener (the `net.control`
//! config field or `--control` flag), performs the versioned
//! [`Msg::Attach`] handshake, and then drives the session either as a
//! line-oriented REPL ([`run_repl`]) or as an NDJSON-over-HTTP waveform
//! relay ([`serve_http`]).
//!
//! The REPL is deliberately pipe-friendly: every command prints exactly
//! one deterministic reply line (streamed watch/metric lines are
//! printed as they drain, before the next command's reply), so CI can
//! script a session with a here-doc and grep the transcript:
//!
//! ```text
//! $ fireaxe attach 127.0.0.1:9100 <<EOF
//! pause
//! peek router2:east_valid
//! poke source0:inject 3
//! step 100
//! resume
//! detach
//! EOF
//! ```
//!
//! Every interaction happens at a deterministic target-cycle boundary
//! on the worker (the same sampling point budgets and checkpoint
//! barriers use), so a scripted session replayed against any backend
//! observes bit-identical values.

use fireaxe_net::codec::{read_msg, write_msg, PROTOCOL_MAGIC};
use fireaxe_net::{Msg, NetStream, NodeInfo, PROTOCOL_VERSION};
use fireaxe_obs::{metric_delta_json, signal_table_json, wave_delta_json, VcdSignal};
use std::io::{BufRead, Read as _, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the client waits for a coordinator reply before giving up.
/// Pause fences wait for every partition to quiesce, so this is sized
/// for a busy cluster, not a local ping.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One attached cockpit session: the control socket plus the identity
/// tables the coordinator sent back in its [`Msg::AttachAck`].
pub struct AttachClient {
    stream: NetStream,
    rx: mpsc::Receiver<Msg>,
    /// Every node in the cluster with its flat index, owning partition,
    /// and progress at attach time.
    pub nodes: Vec<NodeInfo>,
    /// The shared VCD signal table (`sig` indices in wave deltas point
    /// here). Empty when the run captures no waveform.
    pub signals: Vec<VcdSignal>,
    /// Metric sampling cadence in target cycles (0 = sampling off).
    pub sample_interval: u64,
}

impl AttachClient {
    /// Connects and attaches to a coordinator's control listener.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the connection, the handshake, or
    /// the protocol version check fails.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, String> {
        let mut stream =
            NetStream::connect(addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
        write_msg(
            &mut stream,
            &Msg::Attach {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| format!("attach handshake: {e}"))?;
        let ack = read_msg(&mut stream)
            .map_err(|e| format!("attach handshake: {e}"))?
            .ok_or("control connection closed during attach (protocol version mismatch?)")?;
        let Msg::AttachAck {
            nodes,
            signals,
            sample_interval,
        } = ack
        else {
            return Err("unexpected reply to attach".into());
        };
        // All further coordinator traffic (replies and streamed deltas)
        // arrives on a reader thread; the thread dies with the socket.
        let mut reader = stream
            .try_clone()
            .map_err(|e| format!("control socket clone: {e}"))?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            while let Ok(Some(msg)) = read_msg(&mut reader) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        Ok(AttachClient {
            stream,
            rx,
            nodes,
            signals,
            sample_interval,
        })
    }

    /// Sends one control message to the coordinator.
    ///
    /// # Errors
    ///
    /// Returns a rendered error when the socket write fails.
    pub fn send(&mut self, msg: &Msg) -> Result<(), String> {
        write_msg(&mut self.stream, msg).map_err(|e| format!("control send: {e}"))
    }

    /// Receives the next coordinator message, waiting until `deadline`.
    fn recv_deadline(&self, deadline: Instant) -> Option<Msg> {
        let now = Instant::now();
        let left = deadline.checked_duration_since(now)?;
        self.rx.recv_timeout(left).ok()
    }

    /// Resolves a signal spelling to `(flat node index, path)`.
    ///
    /// `node:path` pins the node by name or flat index; a bare path is
    /// accepted when the cluster has exactly one node, or when exactly
    /// one signal-table entry carries that name (its scope names the
    /// node).
    ///
    /// # Errors
    ///
    /// Returns a rendered error for unknown nodes and ambiguous bare
    /// paths.
    pub fn resolve(&self, spec: &str) -> Result<(u32, String), String> {
        if let Some((node, path)) = spec.split_once(':') {
            if let Some(info) = self.nodes.iter().find(|n| n.name == node) {
                return Ok((info.node, path.to_string()));
            }
            if let Ok(idx) = node.parse::<u32>() {
                if self.nodes.iter().any(|n| n.node == idx) {
                    return Ok((idx, path.to_string()));
                }
            }
            return Err(format!("unknown node `{node}` (try `nodes`)"));
        }
        if self.nodes.len() == 1 {
            return Ok((self.nodes[0].node, spec.to_string()));
        }
        let mut scopes: Vec<&str> = self
            .signals
            .iter()
            .filter(|s| s.name == spec)
            .map(|s| s.scope.as_str())
            .collect();
        scopes.dedup();
        match scopes.as_slice() {
            [one] => {
                let info = self
                    .nodes
                    .iter()
                    .find(|n| n.name == *one)
                    .ok_or_else(|| format!("signal table names unknown node `{one}`"))?;
                Ok((info.node, spec.to_string()))
            }
            [] => Err(format!(
                "`{spec}` needs a node prefix: `node:path` (try `nodes`)"
            )),
            many => Err(format!(
                "`{spec}` is watched on {} nodes; use `node:path`",
                many.len()
            )),
        }
    }

    /// The display name of flat node `idx`.
    fn node_name(&self, idx: u32) -> &str {
        self.nodes
            .iter()
            .find(|n| n.node == idx)
            .map_or("?", |n| n.name.as_str())
    }
}

/// The REPL's streamed-message printer: watch-list wave changes and
/// metric tails are rendered as they drain; everything else a command
/// is not waiting for is dropped.
fn print_stream(
    client: &AttachClient,
    msg: &Msg,
    watch: &[u32],
    out: &mut impl Write,
) -> std::io::Result<()> {
    match msg {
        Msg::WaveDelta { changes, .. } => {
            for (cycle, sig, value) in changes {
                if !watch.is_empty() && !watch.contains(sig) {
                    continue;
                }
                let name = client
                    .signals
                    .get(*sig as usize)
                    .map(|s| format!("{}:{}", s.scope, s.name))
                    .unwrap_or_else(|| format!("sig{sig}"));
                writeln!(out, "wave {name} = 0x{value:x} @ cycle {cycle}")?;
            }
        }
        Msg::MetricDelta { node, samples } => {
            if let Some(m) = samples.last() {
                writeln!(
                    out,
                    "metrics {}: cycle {} digest {:#018x} queue {} ({} new sample(s))",
                    client.node_name(*node),
                    m.cycle,
                    m.state_digest,
                    m.queue_occupancy,
                    samples.len()
                )?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Waits for the first reply matching `want`, printing streamed
/// watch/metric traffic that arrives in the meantime.
fn wait_reply(
    client: &AttachClient,
    watch: &[u32],
    out: &mut impl Write,
    want: impl Fn(&Msg) -> bool,
) -> Result<Msg, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        match client.recv_deadline(deadline) {
            Some(m) if want(&m) => return Ok(m),
            Some(m) => print_stream(client, &m, watch, out).map_err(|e| e.to_string())?,
            None => {
                return Err(
                    "timed out waiting for the coordinator (did the run finish?)".to_string(),
                )
            }
        }
    }
}

const HELP: &str = "\
commands:
  nodes | status       per-node progress and pause state
  peek <sig>           read a signal (`node:path`, or a bare unique path)
  poke <sig> <value>   drive a top-level input at the next cycle boundary
  pause                fence the whole cluster at one target cycle
  step [n]             advance a paused cluster exactly n cycles (default 1)
  resume               lift the fence and continue toward the budget
  checkpoint           capture a coordinated snapshot (pauses if needed)
  watch [sig ..]       subscribe + print wave changes (no args = all signals)
  unwatch              stop the wave stream
  metrics on|off       subscribe to the live metric tail
  help                 this text
  detach | quit        end the session (the run continues)";

/// Runs the line-oriented cockpit REPL over an attached session until
/// `detach`/EOF. Commands and replies are documented under `help`;
/// every reply is a single line so piped sessions are greppable.
///
/// # Errors
///
/// Returns a rendered error when the control socket or the output sink
/// fails, or when the coordinator stops replying.
#[allow(clippy::too_many_lines)]
pub fn run_repl(
    client: &mut AttachClient,
    input: impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut watch: Vec<u32> = Vec::new();
    let mut sub_wave = false;
    let mut sub_metrics = false;
    let mut paused: Option<u64> = None;
    for line in input.lines() {
        let line = line.map_err(io)?;
        // Drain stream traffic that arrived while we were blocked on
        // stdin so watch output lands before the next reply line.
        while let Ok(m) = client.rx.try_recv() {
            print_stream(client, &m, &watch, out).map_err(io)?;
        }
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        match cmd {
            "help" => writeln!(out, "{HELP}").map_err(io)?,
            "nodes" | "status" => {
                client.send(&Msg::Status)?;
                let reply = wait_reply(client, &watch, out, |m| {
                    matches!(m, Msg::StatusReply { .. })
                })?;
                if let Msg::StatusReply {
                    nodes,
                    paused: p,
                    fence,
                } = reply
                {
                    for n in &nodes {
                        writeln!(
                            out,
                            "node {} {} partition {} cycle {}",
                            n.node, n.name, n.partition, n.cycle
                        )
                        .map_err(io)?;
                    }
                    if p {
                        writeln!(out, "paused @ cycle {fence}").map_err(io)?;
                    } else {
                        writeln!(out, "running").map_err(io)?;
                    }
                }
            }
            "peek" => {
                let Some(spec) = parts.next() else {
                    writeln!(out, "peek needs a signal (try help)").map_err(io)?;
                    continue;
                };
                match client.resolve(spec) {
                    Err(e) => writeln!(out, "peek: {e}").map_err(io)?,
                    Ok((node, path)) => {
                        client.send(&Msg::Peek {
                            node,
                            path: path.clone(),
                        })?;
                        let reply = wait_reply(client, &watch, out, |m| {
                            matches!(m, Msg::PeekReply { .. })
                        })?;
                        if let Msg::PeekReply {
                            node, cycle, value, ..
                        } = reply
                        {
                            match value {
                                Some(v) => writeln!(
                                    out,
                                    "peek {}:{path} = 0x{v:x} @ cycle {cycle}",
                                    client.node_name(node)
                                )
                                .map_err(io)?,
                                None => writeln!(
                                    out,
                                    "peek {}:{path}: no such signal",
                                    client.node_name(node)
                                )
                                .map_err(io)?,
                            }
                        }
                    }
                }
            }
            "poke" => {
                let (Some(spec), Some(val)) = (parts.next(), parts.next()) else {
                    writeln!(out, "poke needs a signal and a value (try help)").map_err(io)?;
                    continue;
                };
                let value = match val.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => val.parse(),
                };
                let Ok(value) = value else {
                    writeln!(out, "poke: bad value `{val}`").map_err(io)?;
                    continue;
                };
                match client.resolve(spec) {
                    Err(e) => writeln!(out, "poke: {e}").map_err(io)?,
                    Ok((node, path)) => {
                        client.send(&Msg::Poke {
                            node,
                            path: path.clone(),
                            value,
                        })?;
                        let reply =
                            wait_reply(client, &watch, out, |m| matches!(m, Msg::PokeAck { .. }))?;
                        if let Msg::PokeAck {
                            node, cycle, error, ..
                        } = reply
                        {
                            if error.is_empty() {
                                writeln!(
                                    out,
                                    "poke {}:{path} = 0x{value:x} staged @ cycle {cycle}",
                                    client.node_name(node)
                                )
                                .map_err(io)?;
                            } else {
                                writeln!(out, "poke {}:{path}: {error}", client.node_name(node))
                                    .map_err(io)?;
                            }
                        }
                    }
                }
            }
            "pause" => {
                client.send(&Msg::Pause { cycle: 0 })?;
                let reply = wait_reply(client, &watch, out, |m| matches!(m, Msg::PauseAck { .. }))?;
                if let Msg::PauseAck { cycle } = reply {
                    paused = Some(cycle);
                    writeln!(out, "paused @ cycle {cycle}").map_err(io)?;
                }
            }
            "step" => {
                let n = parts.next().map_or(Ok(1), str::parse).unwrap_or(0);
                if n == 0 {
                    writeln!(out, "step: bad cycle count").map_err(io)?;
                    continue;
                }
                client.send(&Msg::Step { n })?;
                let reply = wait_reply(client, &watch, out, |m| matches!(m, Msg::PauseAck { .. }))?;
                if let Msg::PauseAck { cycle } = reply {
                    paused = Some(cycle);
                    writeln!(out, "stepped to cycle {cycle}").map_err(io)?;
                }
            }
            "resume" => {
                client.send(&Msg::ResumeRun)?;
                paused = None;
                writeln!(out, "resumed").map_err(io)?;
            }
            "checkpoint" => {
                // A snapshot needs a standing fence (the fence *is* the
                // quiescent cut); pause around it when running.
                let auto = paused.is_none();
                if auto {
                    client.send(&Msg::Pause { cycle: 0 })?;
                    wait_reply(client, &watch, out, |m| matches!(m, Msg::PauseAck { .. }))?;
                }
                client.send(&Msg::SnapshotNow)?;
                let reply = wait_reply(client, &watch, out, |m| {
                    matches!(m, Msg::SnapshotDone { .. })
                })?;
                if let Msg::SnapshotDone { cycle } = reply {
                    if cycle == 0 {
                        writeln!(out, "snapshot refused (cluster not paused)").map_err(io)?;
                    } else {
                        writeln!(out, "snapshot committed @ cycle {cycle}").map_err(io)?;
                    }
                }
                if auto {
                    client.send(&Msg::ResumeRun)?;
                }
            }
            "watch" => {
                watch.clear();
                let mut missed = Vec::new();
                for spec in parts {
                    let hits: Vec<u32> = client
                        .signals
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| {
                            s.name == spec || format!("{}:{}", s.scope, s.name) == spec
                        })
                        .map(|(i, _)| i as u32)
                        .collect();
                    if hits.is_empty() {
                        missed.push(spec);
                    }
                    watch.extend(hits);
                }
                for spec in missed {
                    writeln!(out, "watch: `{spec}` is not in the signal table").map_err(io)?;
                }
                sub_wave = true;
                client.send(&Msg::Subscribe {
                    wave: true,
                    metrics: sub_metrics,
                })?;
                let n = if watch.is_empty() {
                    client.signals.len()
                } else {
                    watch.len()
                };
                writeln!(out, "watching {n} signal(s)").map_err(io)?;
            }
            "unwatch" => {
                watch.clear();
                sub_wave = false;
                client.send(&Msg::Subscribe {
                    wave: false,
                    metrics: sub_metrics,
                })?;
                writeln!(out, "wave stream off").map_err(io)?;
            }
            "metrics" => {
                sub_metrics = parts.next() == Some("on");
                client.send(&Msg::Subscribe {
                    wave: sub_wave,
                    metrics: sub_metrics,
                })?;
                writeln!(
                    out,
                    "metric tail {}",
                    if sub_metrics { "on" } else { "off" }
                )
                .map_err(io)?;
            }
            "detach" | "quit" | "exit" => break,
            other => writeln!(out, "unknown command `{other}` (try help)").map_err(io)?,
        }
        out.flush().map_err(io)?;
    }
    // EOF detaches cleanly: a standing fence is lifted by the
    // coordinator when the last client leaves, so a dropped pipe never
    // wedges the run.
    client.send(&Msg::Detach)?;
    Ok(())
}

/// Completes a minimal HTTP exchange on a freshly accepted connection:
/// reads the request head, writes a `200` with a chunked-free NDJSON
/// body, and emits the signal-table line so `sig` indices resolve.
fn http_handshake(s: &mut std::net::TcpStream, head_line: &str) -> std::io::Result<()> {
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 512];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 8192 {
        let n = s.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
    }
    s.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Cache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    s.write_all(head_line.as_bytes())?;
    s.write_all(b"\n")?;
    s.flush()
}

/// Serves the live wave/metric stream as newline-delimited JSON over
/// HTTP on `127.0.0.1:port` (port 0 picks an ephemeral port, printed to
/// `out`). Subscribes to both streams and relays every delta to every
/// connected HTTP client until the run ends; a slow or dropped client
/// is disconnected without disturbing the others.
///
/// # Errors
///
/// Returns a rendered error when the port cannot be bound or the
/// control socket fails.
pub fn serve_http(
    client: &mut AttachClient,
    port: u16,
    out: &mut impl Write,
) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    writeln!(out, "streaming NDJSON on http://{addr}/").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    client.send(&Msg::Subscribe {
        wave: true,
        metrics: true,
    })?;

    let sinks: Arc<Mutex<Vec<std::net::TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let sinks = Arc::clone(&sinks);
        let head = signal_table_json(&client.signals);
        // The accept thread parks in `accept` when the run ends; the
        // process exits right after, so it is never joined.
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let mut stream = stream;
                if http_handshake(&mut stream, &head).is_ok() {
                    sinks.lock().unwrap().push(stream);
                }
            }
        });
    }

    // Channel disconnect == control socket EOF == the run is over.
    while let Ok(msg) = client.rx.recv() {
        let line = match &msg {
            Msg::WaveDelta { changes, .. } => wave_delta_json(&client.signals, changes),
            Msg::MetricDelta { node, samples } => {
                metric_delta_json(client.node_name(*node), samples)
            }
            _ => continue,
        };
        let mut sinks = sinks.lock().unwrap();
        sinks.retain_mut(|s| {
            s.write_all(line.as_bytes())
                .and_then(|()| s.write_all(b"\n"))
                .and_then(|()| s.flush())
                .is_ok()
        });
    }
    writeln!(out, "run ended; control stream closed").map_err(|e| e.to_string())?;
    Ok(())
}
