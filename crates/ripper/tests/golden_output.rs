//! Golden corpus of FireRipper output.
//!
//! `compile` is a pure function of `(circuit, spec)`, and everything
//! downstream (tape compile, LI-BDN construction, the DES golden every
//! backend is checked against) consumes its output verbatim, so a
//! structural rewrite of the compiler is refereed here: each corpus
//! design's complete output — `print_circuit` of every thread circuit,
//! every `LiBdnSpec`, `env_inputs`/`env_outputs`, `links` and `report` —
//! is rendered to text and compared against a frozen 64-bit digest.
//!
//! The digests were taken from the per-instance compiler this corpus was
//! frozen against (PR 12's tree). Five (`noc6`, `soc24`, `ring12_fast`,
//! `ring_mixed`, `nested`) were re-frozen once, when shell-passthrough
//! resolution stopped reading through registers: a top-level read that
//! resolved through a register had skipped its cycle of latency. On a mismatch the test names the first
//! section whose digest moved and, when a reference dump is available,
//! prints a line diff of that section: run the suite on the reference
//! tree with `GOLDEN_DUMP=<dir>` to write one text file per corpus
//! design, then on the changed tree with `GOLDEN_REF=<dir>`.

use fireaxe_ir::build::{ModuleBuilder, Sig};
use fireaxe_ir::printer::print_circuit;
use fireaxe_ir::Circuit;
use fireaxe_ripper::{
    compile, compile_with_options, CompileOptions, PartitionGroup, PartitionSpec,
    PartitionedDesign, Selection,
};
use fireaxe_soc::validation::rocket_soc;
use fireaxe_soc::{ring_soc, xbar_soc, RingSocConfig, XbarSocConfig};
use std::fmt::Write as _;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The compiler's output as named text sections, in emission order.
fn render(design: &PartitionedDesign) -> Vec<(String, String)> {
    let mut sections = Vec::new();
    for (flat, pi, ti, t) in design.nodes() {
        let part = &design.partitions[pi];
        let head = format!(
            "node {flat}: partition {pi} `{}` thread {ti} `{}`",
            part.name, t.name
        );
        sections.push((format!("{head}: circuit"), print_circuit(&t.circuit)));
        let mut io = String::new();
        writeln!(io, "fame5: {}", part.fame5).unwrap();
        writeln!(io, "{:#?}", t.libdn).unwrap();
        writeln!(io, "env_inputs: {:?}", t.env_inputs).unwrap();
        writeln!(io, "env_outputs: {:?}", t.env_outputs).unwrap();
        sections.push((format!("{head}: channels"), io));
    }
    let mut links = String::new();
    for l in &design.links {
        writeln!(links, "{l:?}").unwrap();
    }
    sections.push(("links".into(), links));
    sections.push((
        "report".into(),
        format!("mode: {:?}\n{:#?}\n", design.mode, design.report),
    ));
    sections
}

/// One text per design: `== <section> ==` headers between the sections.
fn flatten(sections: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, text) in sections {
        writeln!(out, "== {name} ==").unwrap();
        out.push_str(text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// First differing line of two texts with three lines of context.
fn line_diff(want: &str, got: &str) -> String {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let first = w
        .iter()
        .zip(&g)
        .position(|(a, b)| a != b)
        .unwrap_or(w.len().min(g.len()));
    let mut out = format!("first difference at line {}:\n", first + 1);
    let lo = first.saturating_sub(3);
    for (tag, lines) in [("-", &w), ("+", &g)] {
        for (i, line) in lines.iter().enumerate().skip(lo).take(first - lo + 4) {
            let mark = if i >= first { tag } else { " " };
            writeln!(out, "{mark}{:>6} | {line}", i + 1).unwrap();
        }
    }
    out
}

/// Checks one corpus design against its frozen per-section digests
/// (each over the section's name and text, in emission order).
fn check(name: &str, design: &PartitionedDesign, frozen: &[u64]) {
    let sections = render(design);
    if let Ok(dir) = std::env::var("GOLDEN_DUMP") {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(format!("{dir}/{name}.txt"), flatten(&sections)).unwrap();
    }
    let got: Vec<u64> = sections
        .iter()
        .map(|(n, t)| fnv1a(&format!("{n}\n{t}")))
        .collect();
    if got == frozen {
        return;
    }
    let mut msg =
        format!("golden mismatch on `{name}`; the output now digests to\n&{got:#018x?}\n");
    if got.len() != frozen.len() {
        writeln!(msg, "{} sections, frozen {}", got.len(), frozen.len()).unwrap();
    }
    if let Some(i) = got.iter().zip(frozen).position(|(a, b)| a != b) {
        let (sname, stext) = &sections[i];
        writeln!(msg, "first differing section: `{sname}`").unwrap();
        let reference = std::env::var("GOLDEN_REF")
            .ok()
            .and_then(|dir| std::fs::read_to_string(format!("{dir}/{name}.txt")).ok());
        match reference {
            Some(reference) => {
                let header = format!("== {sname} ==\n");
                let want = reference
                    .split_once(&header)
                    .map(|(_, rest)| rest.split("\n== ").next().unwrap_or(rest))
                    .unwrap_or("");
                msg.push_str(&line_diff(want, stext));
            }
            None => {
                msg.push_str(
                    "no reference text: dump the frozen compiler's output with \
                     GOLDEN_DUMP=<dir>, rerun with GOLDEN_REF=<dir> for a line diff; \
                     the section now begins:\n",
                );
                for line in stext.lines().take(20) {
                    writeln!(msg, "  {line}").unwrap();
                }
            }
        }
    }
    panic!("{msg}");
}

/// `groups` NoC-mode groups of `per` consecutive routers each.
fn noc_groups(router_paths: &[String], groups: usize, per: usize) -> Vec<PartitionGroup> {
    (0..groups)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: router_paths.to_vec(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect()
}

/// The `noc6` cut of the reference benchmark: 6 tiles, 3 × 2 routers.
fn noc6() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 3, 2);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// The `soc24` cut (paper Fig. 6): 24 tiles, 4 × 6 routers.
fn soc24() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: u64::MAX / 2,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 4, 6);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// Four levels of hierarchy with `Cluster` and `Lane` each instantiated
/// twice (so path specialization clones them), a `Lane` port named like a
/// punched port (so name allocation has to uniquify), and a combinational
/// read of a lifted instance's output inside its parent.
fn nested() -> Circuit {
    let mut leaf = ModuleBuilder::new("Pe");
    let a = leaf.input("a", 8);
    let b = leaf.input("b", 8);
    let y = leaf.output("y", 8);
    let z = leaf.output("z", 8);
    let acc = leaf.reg("acc", 8, 0);
    leaf.connect_sig(&acc, &a.add(&b));
    leaf.connect_sig(&y, &acc);
    leaf.connect_sig(&z, &acc.xor(&Sig::lit(0x5a, 8)));
    let leaf = leaf.finish();

    let mut lane = ModuleBuilder::new("Lane");
    let i = lane.input("i", 8);
    // Collides with the port punched for `p0.a`.
    let clash = lane.input("p0_a", 8);
    let o = lane.output("o", 8);
    lane.inst("p0", "Pe");
    lane.inst("p1", "Pe");
    lane.connect_inst("p0", "a", &i);
    lane.connect_inst("p0", "b", &clash);
    let p0y = lane.inst_port("p0", "y");
    lane.connect_inst("p1", "a", &p0y);
    let p0z = lane.inst_port("p0", "z");
    lane.connect_inst("p1", "b", &p0z.add(&Sig::lit(1, 8)));
    let p1y = lane.inst_port("p1", "y");
    let p1z = lane.inst_port("p1", "z");
    let mix = lane.node("mix", &p1y.xor(&p1z));
    lane.connect_sig(&o, &mix);
    let lane = lane.finish();

    let mut cluster = ModuleBuilder::new("Cluster");
    let i = cluster.input("i", 8);
    let o = cluster.output("o", 8);
    cluster.inst("l0", "Lane");
    cluster.inst("l1", "Lane");
    cluster.connect_inst("l0", "i", &i);
    cluster.connect_inst("l0", "p0_a", &i);
    let l0o = cluster.inst_port("l0", "o");
    cluster.connect_inst("l1", "i", &l0o);
    cluster.connect_inst("l1", "p0_a", &Sig::lit(3, 8));
    let l1o = cluster.inst_port("l1", "o");
    cluster.connect_sig(&o, &l1o);
    let cluster = cluster.finish();

    let mut top = ModuleBuilder::new("Nested");
    let i = top.input("i", 8);
    let o = top.output("o", 8);
    top.inst("c0", "Cluster");
    top.inst("c1", "Cluster");
    top.connect_inst("c0", "i", &i);
    let c0o = top.inst_port("c0", "o");
    let hub = top.reg("hub", 8, 0);
    top.connect_sig(&hub, &c0o);
    top.connect_inst("c1", "i", &hub);
    let c1o = top.inst_port("c1", "o");
    top.connect_sig(&o, &c1o);
    Circuit::from_modules("Nested", vec![top.finish(), cluster, lane, leaf], "Nested")
}

fn tile_paths(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("tile{i}")).collect()
}

#[test]
fn noc6_noc_mode() {
    let (c, spec) = noc6();
    let d = compile(&c, &spec).unwrap();
    check("noc6", &d, NOC6);
}

#[test]
fn soc24_noc_mode() {
    let (c, spec) = soc24();
    let d = compile(&c, &spec).unwrap();
    check("soc24", &d, SOC24);
}

#[test]
fn passthrough_resolution_off() {
    let options = CompileOptions {
        resolve_passthroughs: false,
    };
    // Shell wiring left in the remainder makes the noc6 cut a
    // three-crossing chain; the error names reparented instances.
    let (c, spec) = noc6();
    let err = compile_with_options(&c, &spec, options).unwrap_err();
    assert_eq!(format!("{err:?}"), NOC6_RAW_ERR);
    let spec = PartitionSpec::fast(vec![PartitionGroup::instances(
        "a",
        vec!["c0.l0.p0".into(), "c1.l1".into()],
    )]);
    let d = compile_with_options(&nested(), &spec, options).unwrap();
    check("nested_raw", &d, NESTED_RAW);
}

#[test]
fn ring12_fast_noc_mode() {
    let soc = ring_soc(&RingSocConfig {
        tiles: 12,
        ..Default::default()
    });
    let spec = PartitionSpec::fast(noc_groups(&soc.router_paths, 2, 4));
    let d = compile(&soc.circuit, &spec).unwrap();
    check("ring12_fast", &d, RING12_FAST);
}

#[test]
fn xbar_explicit_tiles() {
    let soc = xbar_soc(&XbarSocConfig {
        tiles: 4,
        trace_bits: 16,
        ..Default::default()
    });
    let spec = PartitionSpec::exact(vec![
        PartitionGroup::instances("left", vec!["tile0".into(), "tile1".into()]),
        PartitionGroup::instances("right", vec!["tile3".into()]),
    ]);
    let d = compile(&soc.circuit, &spec).unwrap();
    check("xbar", &d, XBAR);
}

#[test]
fn xbar_fame5_fast() {
    let soc = xbar_soc(&XbarSocConfig {
        tiles: 4,
        tile_period: 4,
        ..Default::default()
    });
    let spec = PartitionSpec::fast(vec![
        PartitionGroup::instances("tiles", tile_paths(4)).with_fame5()
    ]);
    let d = compile(&soc.circuit, &spec).unwrap();
    check("xbar_fame5", &d, XBAR_FAME5);
}

#[test]
fn nested_explicit_paths_specialize() {
    let c = nested();
    let spec = PartitionSpec::exact(vec![
        PartitionGroup::instances("a", vec!["c0.l0.p0".into(), "c0.l1.p1".into()]),
        PartitionGroup::instances("b", vec!["c1.l0".into(), "c0.l0.p1".into()]),
    ]);
    let d = compile(&c, &spec).unwrap();
    check("nested", &d, NESTED);
}

#[test]
fn ring_explicit_mixed_with_noc_mode() {
    // Explicit deep paths and a NoC-mode group in one spec: lifts out of
    // `NocPhysical`, `NocProtocol` and `Noc` interleave across groups.
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        ..Default::default()
    });
    let spec = PartitionSpec::exact(vec![
        PartitionGroup::instances(
            "hand",
            vec![
                "noc.proto.phys.r4".into(),
                "tile4".into(),
                "noc.cdc4".into(),
                "noc.proto.pc4".into(),
            ],
        ),
        PartitionGroup {
            name: "grown".into(),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![0, 1],
            },
            fame5: false,
        },
    ]);
    let d = compile(&soc.circuit, &spec).unwrap();
    check("ring_mixed", &d, RING_MIXED);
}

#[test]
fn rocket_master_on_its_own_partition() {
    let c = rocket_soc(4, 16);
    let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
        "core",
        vec!["master".into()],
    )]);
    let d = compile(&c, &spec).unwrap();
    check("rocket", &d, ROCKET);
}

// Frozen digests, one per section in emission order.
type Golden = &'static [u64];
const NOC6: Golden = &[
    0x84eb73e2737a5fbc,
    0xa39816a87f2a5581,
    0x4d89e77347c96c15,
    0x5a2f19da467bea4c,
    0x7544cc83adaeb3ea,
    0xda78ead69e223cc4,
    0x7807cdc72e52d5f7,
    0x83500320cab8fbdb,
    0xfc210c6dc7a2ed27,
    0x673cb9e30d1546ed,
];
const SOC24: Golden = &[
    0x7be2e48474db460a,
    0xca9058b446fc83f5,
    0x6b058a9b660cd247,
    0xaa6e844676012fc7,
    0x80d9da3bfda99618,
    0x1d466a2a5ec66421,
    0x40835a468d3d1513,
    0x54c99d2074ef3a49,
    0xfe735d0f81871c02,
    0x565ae0ddc23be43b,
    0xb072400fe62fa281,
    0x4237dabc7f9d16af,
];
const NOC6_RAW_ERR: &str = "CombChainTooLong { chain: [\"rest.fpga0_inst_noc__cdc0_tx_bits_in\", \"fpga0.noc__cdc0_tx_bits_in\", \"fpga0.noc__cdc0_tx_bits_out\"] }";
const NESTED_RAW: Golden = &[
    0x4456521533b5ebd7,
    0x6be56cc17ecabeb4,
    0x68963ad0c7373751,
    0xe67ef17f3dbf3490,
    0xf9b1bb43bd59b5c5,
    0x609419ddb6fb3d9b,
];
const RING12_FAST: Golden = &[
    0xb12032251c911c52,
    0x32536b074ddec5e4,
    0x0f4717127609986f,
    0x4538580931db417c,
    0xd34ee48fab59f3ec,
    0xde663ca2bc51f1ec,
    0xb43502c0d297426f,
    0xfd8638ef87e69f09,
];
const XBAR: Golden = &[
    0x8b8e89c4bde6cb76,
    0x0ebd5744826ad72f,
    0xd422e629d8f4000d,
    0xfc36c063feb5f4d2,
    0xf599f2db7738847f,
    0x8cec83812817504d,
    0x41373924c9eeb205,
    0xbcde92d1d180d96f,
];
const XBAR_FAME5: Golden = &[
    0xb0e32a7e2cf097a5,
    0x71d8c3ad647fbd87,
    0xc5353c3fe232ee0c,
    0x39cd1e2658c62806,
    0x888d8863131e23d3,
    0xe505b061f59a5215,
    0xfa10298d254579c2,
    0x7ebe7f79b08d22b4,
    0xc15ee792d5734ce4,
    0x6e9ffdae358217ad,
    0xbe3e547311d73090,
    0x1d4de37a0070ea28,
];
const NESTED: Golden = &[
    0x2ce807c0ac8518ef,
    0x94e1e7c27a4df8e4,
    0xf479434d1cc77307,
    0x60ecc718f6c8321f,
    0x935de91def7bf6de,
    0xa8a2878a9e633ea1,
    0x13edb913d3d95c2d,
    0x07630cfde7f1a8b5,
];
const RING_MIXED: Golden = &[
    0xb7b254ac54132f51,
    0x668ee20b14cd2428,
    0x478c6b7a507cbd9b,
    0x06439d7bbdf10e59,
    0x55f70ee31b16f74c,
    0x3996e9e523e6fa02,
    0x24f90fe78c476fda,
    0xc846b09002790e16,
];
const ROCKET: Golden = &[
    0x91f95ecfdecb3c31,
    0x896f54a68a6983cf,
    0x7afa31cba88841c8,
    0x8bf43cb0f7157cd9,
    0xe62170edb92b2fb5,
    0xf5237d3f52c38479,
];
