//! Standalone probes: one layer's public functions timed on the
//! workload's own inputs (channel specs and link widths of its
//! partitioned design), outside any simulation.

use crate::inputs::Design;
use crate::layers::{compile_partitions, s, Ctx, Res};
use fireaxe::ir::{
    circuit_from_tape, circuit_to_tape, Bits, ExecEngine, Interpreter, Result as IrResult, Width,
};
use fireaxe::libdn::{LiBdn, LiBdnSpec, TargetModel};
use fireaxe::ripper::PartitionedDesign;
use fireaxe::transport::reliable::{Frame, RetryPolicy, RxState, RxVerdict, TxState};
use fireaxe_net::codec::{decode_msg, encode_msg};
use fireaxe_net::{Msg, NetListener, NetStream, WireSettings};
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Named probe results.
pub type Rows = Vec<(&'static str, f64)>;

/// A target model with a partition's port list and no logic: what is
/// left of a host step is the LI-BDN's own queueing and FSM work.
#[derive(Debug)]
struct PassThrough {
    inputs: Vec<(String, Width)>,
    outputs: Vec<(String, Bits)>,
}

impl PassThrough {
    fn of(spec: &LiBdnSpec) -> Self {
        PassThrough {
            inputs: spec.inputs.iter().flat_map(|c| c.ports.clone()).collect(),
            outputs: spec
                .outputs
                .iter()
                .flat_map(|o| o.channel.ports.iter())
                .map(|(name, width)| (name.clone(), Bits::zero(*width)))
                .collect(),
        }
    }
}

impl TargetModel for PassThrough {
    fn reset(&mut self) {}
    fn poke(&mut self, _port: &str, _value: Bits) {}
    fn eval(&mut self) -> fireaxe::libdn::Result<()> {
        Ok(())
    }
    fn peek(&self, port: &str) -> Bits {
        self.outputs
            .iter()
            .find(|(name, _)| name == port)
            .map_or_else(|| Bits::zero(1u32), |(_, v)| v.clone())
    }
    fn tick(&mut self) {}
    fn input_ports(&self) -> Vec<(String, Width)> {
        self.inputs.clone()
    }
    fn output_ports(&self) -> Vec<(String, Width)> {
        self.outputs
            .iter()
            .map(|(name, v)| (name.clone(), v.width()))
            .collect()
    }
}

/// `libdn.host_step_ns`: push a token on every input channel, host-step
/// until the target cycle advances, pop every output — over the first
/// extracted partition's channel structure.
fn libdn_host_step(design: &PartitionedDesign, cycles: u64) -> Res<f64> {
    let spec = design.partitions[0].threads[0].libdn.clone();
    let tokens: Vec<Bits> = spec.inputs.iter().map(|c| Bits::zero(c.width())).collect();
    let n_out = spec.outputs.len();
    let mut bdn = LiBdn::new(spec.clone(), Box::new(PassThrough::of(&spec))).map_err(s)?;
    let mut steps = 0u64;
    let t = Instant::now();
    for cycle in 0..cycles {
        for (chan, token) in tokens.iter().enumerate() {
            bdn.push_input(chan, token.clone()).map_err(s)?;
        }
        while bdn.target_cycle() == cycle {
            bdn.host_step().map_err(s)?;
            steps += 1;
            if steps > 64 * (cycle + 1) {
                return Err("pass-through LI-BDN failed to advance".to_string());
            }
        }
        for chan in 0..n_out {
            black_box(bdn.pop_output(chan));
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e9 / steps as f64)
}

/// A token as wide as the design's widest inter-partition link.
fn widest_token(design: &PartitionedDesign) -> Bits {
    let width = design.links.iter().map(|l| l.width).max().unwrap_or(64);
    Bits::ones(u32::try_from(width).expect("link widths are small"))
}

/// `transport.reliable.frame_ns`: one token through the go-back-N
/// protocol and its byte framing, send to cumulative ack.
fn reliable_frame(token: &Bits, tokens: u64) -> Res<f64> {
    let mut tx = TxState::new(RetryPolicy::default());
    let mut rx = RxState::new();
    let mut wire = Vec::new();
    let t = Instant::now();
    for _ in 0..tokens {
        let frame = tx.send(token.clone());
        wire.clear();
        frame.encode_bytes(&mut wire);
        let mut pos = 0;
        let got = Frame::decode_bytes(&wire, &mut pos)?;
        match rx.on_frame(&got) {
            RxVerdict::Deliver { payload, ack } => {
                black_box(payload);
                tx.on_ack(ack);
            }
            other => return Err(format!("clean frame not delivered: {other:?}")),
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e9 / tokens as f64)
}

/// The token message the wire carries at the default batch size.
fn token_batch(token: &Bits) -> Msg {
    let batch = WireSettings::default().effective_batch() as u64;
    Msg::TokenBatch {
        link: 0,
        frames: (0..batch)
            .map(|seq| Frame::seal(seq, token.clone()))
            .collect(),
    }
}

/// `net.codec.*`: encode and decode of one default-batch token message,
/// per token, and its framed size per token.
fn codec(token: &Bits, messages: u64) -> Res<(f64, f64, f64)> {
    let msg = token_batch(token);
    let Msg::TokenBatch { frames, .. } = &msg else {
        unreachable!("token_batch builds a TokenBatch")
    };
    let per = frames.len() as f64;
    let t = Instant::now();
    for _ in 0..messages {
        black_box(encode_msg(black_box(&msg)));
    }
    let enc_ns = t.elapsed().as_secs_f64() * 1e9 / (messages as f64 * per);
    let bytes = encode_msg(&msg);
    let t = Instant::now();
    for _ in 0..messages {
        black_box(decode_msg(black_box(&bytes)).map_err(s)?);
    }
    let dec_ns = t.elapsed().as_secs_f64() * 1e9 / (messages as f64 * per);
    Ok((enc_ns, dec_ns, (bytes.len() + 4) as f64 / per))
}

/// `net.stream.unix_rtt_us`: one framed token message ping-ponged
/// between two threads over a Unix-domain `NetStream`.
fn unix_rtt(cx: &Ctx, token: &Bits, trips: u64) -> Res<f64> {
    let payload = encode_msg(&token_batch(token));
    let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&payload);
    let len = framed.len();

    let listener = NetListener::bind(&cx.unix_addr()).map_err(s)?;
    let addr = listener.local_addr_string();
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut stream = listener.accept()?;
        let mut buf = vec![0u8; len];
        // A clean close by the client ends the loop.
        while stream.read_exact(&mut buf).is_ok() {
            stream.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = NetStream::connect(&addr, Duration::from_secs(10)).map_err(s)?;
    let mut buf = vec![0u8; len];
    let t = Instant::now();
    for _ in 0..trips {
        stream.write_all(&framed).map_err(s)?;
        stream.read_exact(&mut buf).map_err(s)?;
    }
    let rtt_us = t.elapsed().as_secs_f64() * 1e6 / trips as f64;
    stream.shutdown();
    echo.join()
        .map_err(|_| "echo thread panicked")?
        .map_err(s)?;
    Ok(rtt_us)
}

/// `ir.tape.encode_s` / `ir.tape.decode_s` on `d`'s circuit, and
/// `ir.tape.compile_parts_s`: a standalone compiled-engine build of every
/// partition circuit of `p` — the `ir` share of `sim.build_s`.
fn tape(cx: &Ctx, d: &Design, design: &PartitionedDesign, p: &Design) -> Res<()> {
    let circuit = fireaxe::ir::parser::parse_circuit(&d.text).map_err(s)?;
    let (bytes, _) = cx
        .tr
        .timed("ir.tape.encode", &d.name, || circuit_to_tape(&circuit));
    cx.tr
        .timed("ir.tape.decode", &d.name, || circuit_from_tape(&bytes))
        .0
        .map_err(s)?;
    cx.tr
        .timed("ir.tape.compile_parts", &p.name, || -> IrResult<()> {
            for part in &design.partitions {
                for thread in &part.threads {
                    black_box(Interpreter::with_engine(
                        &thread.circuit,
                        ExecEngine::Compiled,
                    )?);
                }
            }
            Ok(())
        })
        .0
        .map_err(s)
}

/// Runs every standalone probe: tape codec spans on `d`, the rest on
/// the channel structure and link widths of `p`'s partitioned design.
/// `scale` divides the iteration counts (smoke mode).
pub fn standalone(cx: &Ctx, d: &Design, p: &Design, scale: u64) -> Res<Rows> {
    cx.tr.calibrate();
    let (_, design) = compile_partitions(cx, p)?;
    for _ in 0..3 {
        cx.tr.calibrate();
        tape(cx, d, &design, p)?;
    }
    // Each probe is one loop of at most a few tenths of a second, put on
    // the reference clock like a repetition is.
    let on_reference_clock = |probe: &dyn Fn() -> Res<f64>| -> Res<f64> {
        cx.tr.calibrate();
        Ok(probe()? * cx.tr.scale())
    };
    let token = widest_token(&design);
    cx.tr.calibrate();
    let (enc_ns, dec_ns, bytes) = codec(&token, 40_000 / scale)?;
    let (enc_ns, dec_ns) = (enc_ns * cx.tr.scale(), dec_ns * cx.tr.scale());
    Ok(vec![
        (
            "libdn.host_step_ns",
            on_reference_clock(&|| libdn_host_step(&design, 40_000 / scale))?,
        ),
        (
            "transport.reliable.frame_ns",
            on_reference_clock(&|| reliable_frame(&token, 400_000 / scale))?,
        ),
        ("net.codec.encode_ns_per_token", enc_ns),
        ("net.codec.decode_ns_per_token", dec_ns),
        ("net.codec.bytes_per_token", bytes),
        (
            "net.stream.unix_rtt_us",
            on_reference_clock(&|| unix_rtt(cx, &token, 10_000 / scale))?,
        ),
    ])
}
