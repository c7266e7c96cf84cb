//! Criterion benches over FireAxe's hot kernels: Bits arithmetic, the RTL
//! interpreter, LI-BDN host stepping, channel packing, and FireRipper
//! compilation.

use criterion::{criterion_group, criterion_main, Criterion};
use fireaxe::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;

fn bits_ops(c: &mut Criterion) {
    let a = Bits::from_u64(0x1234_5678_9ABC_DEF0, 256);
    let b = Bits::from_u64(0x0FED_CBA9_8765_4321, 256);
    c.bench_function("bits/add_256", |bench| {
        bench.iter(|| black_box(a.add(black_box(&b))))
    });
    c.bench_function("bits/mul_256", |bench| {
        bench.iter(|| black_box(a.mul(black_box(&b))))
    });
    c.bench_function("bits/cat_extract", |bench| {
        bench.iter(|| {
            let x = a.cat(&b);
            black_box(x.extract(300, 100))
        })
    });
}

fn interpreter_step(c: &mut Criterion) {
    use fireaxe::ir::ExecEngine;
    let circuit = fireaxe::soc::validation::sha3_soc(8);
    // One entry per execution engine, same workload: the compiled
    // instruction tape (default) vs the tree-walking reference.
    for (name, engine) in [
        ("interp/sha3_soc_cycle", ExecEngine::Compiled),
        ("interp/sha3_soc_cycle_reference", ExecEngine::Reference),
    ] {
        c.bench_function(name, |bench| {
            let mut sim = Interpreter::with_engine(&circuit, engine).unwrap();
            sim.poke("go", Bits::from_u64(1, 1));
            bench.iter(|| {
                sim.step().unwrap();
            })
        });
    }
    c.bench_function("interp/elaborate_sha3_soc", |bench| {
        bench.iter(|| black_box(Interpreter::new(black_box(&circuit)).unwrap()))
    });
    // Settle-loop throughput on the pure-RTL 4-node NoC ring, the
    // all-<=64-bit design the zero-allocation guard runs against.
    let noc = fireaxe::soc::noc::ring_noc_circuit(&fireaxe::soc::noc::NocConfig {
        nodes: 4,
        payload_bits: 32,
    });
    for (name, engine) in [
        ("interp/noc_ring4_cycle", ExecEngine::Compiled),
        ("interp/noc_ring4_cycle_reference", ExecEngine::Reference),
    ] {
        c.bench_function(name, |bench| {
            let mut sim = Interpreter::with_engine(&noc, engine).unwrap();
            sim.poke_u64("node0_tx_valid", 1).unwrap();
            let mut n = 0u64;
            bench.iter(|| {
                n = n.wrapping_add(0x9E37_79B9);
                sim.poke_u64("node0_tx_bits", n & 0x3FFF_FFFF).unwrap();
                sim.step().unwrap();
            })
        });
    }
    // One bit-sliced batch step = 64 scenario-cycles; divide the reported
    // time by 64 to compare against the single-lane rows above.
    c.bench_function("interp/noc_ring4_cycle_sliced_x64", |bench| {
        use fireaxe::ir::SlicedInterpreter;
        let mut sim = SlicedInterpreter::new(&noc, 64).unwrap();
        let mut lanes = [0u64; 64];
        let mut n = 0u64;
        bench.iter(|| {
            n = n.wrapping_add(0x9E37_79B9);
            for (lane, v) in lanes.iter_mut().enumerate() {
                *v = (n ^ (lane as u64).wrapping_mul(0x9E37)) & 0x3FFF_FFFF;
            }
            sim.poke_lanes_u64("node0_tx_valid", &[1u64; 64]);
            sim.poke_lanes_u64("node0_tx_bits", &lanes);
            sim.step().unwrap();
        })
    });
}

fn channel_pack(c: &mut Criterion) {
    use fireaxe::libdn::ChannelSpec;
    let spec = ChannelSpec::new(
        "wide",
        (0..32).map(|i| (format!("p{i}"), Width::new(47))).collect(),
    );
    let mut vals = BTreeMap::new();
    for i in 0..32 {
        vals.insert(format!("p{i}"), Bits::from_u64(i as u64 * 977, 47));
    }
    c.bench_function("channel/pack_1504b", |bench| {
        bench.iter(|| black_box(spec.pack(black_box(&vals))))
    });
    let token = spec.pack(&vals);
    c.bench_function("channel/unpack_1504b", |bench| {
        bench.iter(|| black_box(spec.unpack(black_box(&token))))
    });
}

fn ripper_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("ripper");
    g.sample_size(10);
    // Half the ring extracted in NoC-partition-mode; the rows grow with
    // the design (`ripper_bench` gates the growth as a ratio).
    for tiles in [8usize, 12, 24, 48] {
        let soc = ring_soc(&RingSocConfig {
            tiles,
            ..Default::default()
        });
        let spec = PartitionSpec::exact(vec![PartitionGroup {
            name: "fpga0".into(),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: (0..tiles / 2).collect(),
            },
            fame5: false,
        }]);
        g.bench_function(&format!("compile_{tiles}tile_ring"), |bench| {
            bench.iter(|| black_box(compile(black_box(&soc.circuit), black_box(&spec)).unwrap()))
        });
    }
    g.finish();
}

fn engine_throughput(c: &mut Criterion) {
    let circuit = fireaxe::soc::validation::gemmini_soc(8);
    let spec = PartitionSpec::exact(vec![PartitionGroup::instances("m", vec!["master".into()])]);
    let design = compile(&circuit, &spec).unwrap();
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("exact_mode_100_cycles", |bench| {
        bench.iter(|| {
            let mut sim = SimBuilder::new(&design).build().unwrap();
            black_box(sim.run_target_cycles(100).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bits_ops,
    interpreter_step,
    channel_pack,
    ripper_compile,
    engine_throughput
);
criterion_main!(benches);
