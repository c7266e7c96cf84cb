//! The Table II validation SoCs.
//!
//! Three target designs, each a master (core or accelerator) wired to a
//! fixed-latency scratchpad over a ready-valid interface:
//!
//! * **Rocket tile (Linux boot)** — [`rocket_soc`]: the RocketLite core
//!   running the boot program for a configurable number of iterations;
//! * **Sha3Accel (encryption)** — [`sha3_soc`]: short, memory-bound;
//! * **Gemmini (convolution)** — [`gemmini_soc`]: long, compute-bound.
//!
//! Partitioning the master out of the SoC (exact vs. fast mode) and
//! comparing run-to-`done` cycle counts against monolithic interpretation
//! reproduces the paper's validation table: exact-mode error is zero by
//! construction; fast-mode error is largest for Sha3 and smallest for
//! Gemmini.

use crate::accel::{accel_mem_layout, make_gemmini_module, make_sha3_module};
use crate::mem::make_memory_module;
use crate::minicore::{boot_program, core_mem_layout, make_core_module, Instr};
use fireaxe_ir::build::ModuleBuilder;
use fireaxe_ir::{Bits, Circuit, Interpreter, Module};

/// Wires a memory-master module (ports `mreq_*`/`mresp_*`/`done`, plus
/// optionally `go`) to a scratchpad of the given latency; the composite
/// exposes `go` (if the master has it) and `done`.
pub fn master_with_scratchpad(master: Module, mem_latency: u32) -> Circuit {
    let layout = accel_mem_layout();
    let master_name = master.name.clone();
    let has_go = master.port("go").is_some();
    let mem = make_memory_module("Scratchpad", layout.data_bits, 64, mem_latency);

    let mut top = ModuleBuilder::new("ValidationSoc");
    let done = top.output("done", 1);
    top.inst("master", &master_name);
    top.inst("mem", "Scratchpad");
    if has_go {
        let go = top.input("go", 1);
        top.connect_inst("master", "go", &go);
    }
    let av = top.inst_port("master", "mreq_valid");
    top.connect_inst("mem", "req_valid", &av);
    let ab = top.inst_port("master", "mreq_bits");
    top.connect_inst("mem", "req_bits", &ab);
    let mr = top.inst_port("mem", "req_ready");
    top.connect_inst("master", "mreq_ready", &mr);
    let rv = top.inst_port("mem", "resp_valid");
    top.connect_inst("master", "mresp_valid", &rv);
    let rb = top.inst_port("mem", "resp_bits");
    top.connect_inst("master", "mresp_bits", &rb);
    let ar = top.inst_port("master", "mresp_ready");
    top.connect_inst("mem", "resp_ready", &ar);
    let ad = top.inst_port("master", "done");
    top.connect_sig(&done, &ad);
    Circuit::from_modules(
        "ValidationSoc",
        vec![top.finish(), master, mem],
        "ValidationSoc",
    )
}

/// The Sha3 validation SoC (paper: "Sha3Accel (Encryption)").
pub fn sha3_soc(mem_latency: u32) -> Circuit {
    master_with_scratchpad(make_sha3_module("Sha3Accel"), mem_latency)
}

/// The Gemmini validation SoC (paper: "Gemmini (Convolution)").
pub fn gemmini_soc(mem_latency: u32) -> Circuit {
    master_with_scratchpad(make_gemmini_module("Gemmini"), mem_latency)
}

/// The Rocket-tile validation SoC (paper: "Rocket tile (Linux boot)",
/// iteration count scaled down from the 3.84 B-cycle original).
pub fn rocket_soc(boot_iterations: u32, mem_latency: u32) -> Circuit {
    let program: Vec<Instr> = boot_program(4);
    debug_assert_eq!(core_mem_layout().width(), accel_mem_layout().width());
    master_with_scratchpad(
        make_core_module("RocketTile", &program, boot_iterations),
        mem_latency,
    )
}

/// Runs a validation SoC monolithically until `done`, returning the cycle
/// count.
///
/// # Errors
///
/// Returns an error string when the design fails to elaborate or does not
/// finish within `max_cycles`.
pub fn run_monolithic_to_done(circuit: &Circuit, max_cycles: u64) -> Result<u64, String> {
    let mut sim = Interpreter::new(circuit).map_err(|e| e.to_string())?;
    if circuit.top_module().port("go").is_some() {
        sim.poke("go", Bits::from_u64(1, 1));
    }
    for cycle in 0..max_cycles {
        sim.eval().map_err(|e| e.to_string())?;
        if sim.peek("done").to_u64() == 1 {
            return Ok(cycle);
        }
        sim.tick();
    }
    Err(format!("design did not finish within {max_cycles} cycles"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_socs_elaborate_and_finish() {
        let sha = run_monolithic_to_done(&sha3_soc(8), 10_000).unwrap();
        let gem = run_monolithic_to_done(&gemmini_soc(8), 50_000).unwrap();
        let rocket = run_monolithic_to_done(&rocket_soc(100, 8), 500_000).unwrap();
        // Relative scale matches the paper: sha3 << gemmini << rocket.
        assert!(sha < gem);
        assert!(gem < rocket);
    }

    /// The bit-sliced engine runs all three SoCs without the tree walker:
    /// every definition, register next-value and memory port (the
    /// scratchpad's read and write) compiles to a plane kernel.
    #[test]
    fn sliced_engine_scalarizes_nothing_on_the_validation_socs() {
        for (name, circuit) in [
            ("rocket", rocket_soc(60, 16)),
            ("sha3", sha3_soc(8)),
            ("gemmini", gemmini_soc(8)),
        ] {
            let cov = fireaxe_ir::SlicedInterpreter::new(&circuit, 64)
                .unwrap()
                .coverage();
            assert!(cov.scalarized.is_empty(), "{name}: {cov}");
            assert_eq!(cov.mem_reads.kernels, 1, "{name}: {cov}");
            assert_eq!(cov.write_ports.kernels, 1, "{name}: {cov}");
        }
    }

    #[test]
    fn rocket_iterations_scale_runtime() {
        let a = run_monolithic_to_done(&rocket_soc(50, 4), 500_000).unwrap();
        let b = run_monolithic_to_done(&rocket_soc(100, 4), 500_000).unwrap();
        assert!(b > a + (b - a) / 3); // roughly linear growth
    }
}
