//! Behavioural tests of pipeline corner paths: recovery, indirect
//! jumps, wide-bus grouping, MSHR limits, commit logging, and the
//! store-forwarding/disambiguation rules — all with the golden-model
//! oracle armed.

use cfir_emu::MemImage;
use cfir_isa::assemble;
use cfir_sim::{Mode, Pipeline, RegFileSize, RunExit, SimConfig};

fn cfg(mode: Mode) -> SimConfig {
    let mut c = SimConfig::paper_baseline()
        .with_mode(mode)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(u64::MAX >> 1);
    c.cosim_check = true;
    c
}

#[test]
fn mispredicted_loop_exit_recovers() {
    // The loop branch is taken 99 times then falls through: the final
    // not-taken is a guaranteed misprediction for a warmed-up gshare.
    let p = assemble(
        "t",
        "li r1, 0\nli r2, 99\ntop:\naddi r1, r1, 1\nblt r1, r2, top\nli r3, 7\nhalt",
    )
    .unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.arch_reg(3), 7);
    assert!(pipe.stats.mispredicts >= 1);
    assert!(
        pipe.stats.squashed > 0,
        "the wrong path past the loop was flushed"
    );
}

#[test]
fn indirect_jump_learns_its_target() {
    // A jr with a stable target mispredicts once, then the jr-BTB
    // learns it.
    let p = assemble(
        "t",
        r#"
            li r5, 6          ; target: the addi below
            li r1, 0
            li r2, 50
        top:
            jr r5
            halt              ; never reached
            addi r1, r1, 1    ; pc 5? adjust: count instructions!
            blt r1, r2, top
            halt
        "#,
    )
    .unwrap();
    // pc layout: 0 li,1 li,2 li,3 jr,4 halt,5 addi,6 blt,7 halt -> r5 must be 5
    let p = assemble(
        "t",
        "li r5, 5\nli r1, 0\nli r2, 50\njr r5\nhalt\naddi r1, r1, 1\nblt r1, r2, 3\nhalt",
    )
    .unwrap_or(p);
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.arch_reg(1), 50);
}

#[test]
fn store_to_load_forwarding_across_the_window() {
    // A store immediately followed by a dependent load, repeatedly:
    // forwarding must supply the value without waiting for commit.
    let p = assemble(
        "t",
        r#"
            li r1, 8192
            li r2, 0
            li r3, 200
        top:
            st r2, 0(r1)
            ld r4, 0(r1)
            add r5, r5, r4
            addi r2, r2, 1
            blt r2, r3, top
            halt
        "#,
    )
    .unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.arch_reg(5), (0..200).sum::<u64>());
}

#[test]
fn wide_bus_groups_same_line_loads() {
    // Four loads from one 32-byte line per iteration: the wide bus
    // serves them with far fewer L1 accesses than the scalar ports.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 300
    top:
        ld r4, 0(r1)
        ld r5, 8(r1)
        ld r6, 16(r1)
        ld r7, 24(r1)
        add r8, r4, r5
        add r8, r8, r6
        add r8, r8, r7
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut scal = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    scal.run();
    let mut wb = Pipeline::new(&p, MemImage::new(), cfg(Mode::WideBus));
    wb.run();
    assert!(
        wb.stats.l1d_accesses * 2 < scal.stats.l1d_accesses,
        "wide {} vs scalar {}",
        wb.stats.l1d_accesses,
        scal.stats.l1d_accesses
    );
    assert!(wb.stats.cycles <= scal.stats.cycles);
}

#[test]
fn mshr_limit_throttles_misses() {
    // A stream of independent loads, each to a fresh line (all miss):
    // with 16 MSHRs the pipeline still completes correctly.
    let mut src = String::from("li r1, 1048576\n");
    for i in 0..64 {
        let r = 2 + (i % 50);
        src.push_str(&format!("ld r{r}, {}(r1)\n", i * 4096));
    }
    src.push_str("halt");
    let p = assemble("t", &src).unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.stats.l1d_misses, 64);
}

#[test]
fn commit_log_records_the_tail() {
    let p = assemble("t", "li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt").unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    pipe.enable_commit_log(2);
    assert_eq!(pipe.run(), RunExit::Halted);
    let log: Vec<_> = pipe.commit_log().collect();
    assert_eq!(log.len(), 2, "ring buffer keeps the last two");
    assert_eq!(log[0].pc, 2);
    assert_eq!(log[0].value, 3);
    assert_eq!(log[1].pc, 3, "halt is last");
}

#[test]
fn deep_nested_hammocks_stay_correct_in_ci() {
    // Three nested data-dependent hammocks per iteration.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 400
    top:
        muli r4, r2, 8
        andi r4, r4, 2047
        add r4, r4, r1
        ld r5, 0(r4)
        andi r6, r5, 1
        beq r6, r0, l1
        andi r7, r5, 2
        beq r7, r0, l2
        addi r10, r10, 1
        jmp j
    l2: addi r11, r11, 1
        jmp j
    l1: andi r8, r5, 4
        beq r8, r0, l3
        addi r12, r12, 1
        jmp j
    l3: addi r13, r13, 1
    j:  add r14, r14, r5
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    for i in 0..256u64 {
        mem.write(4096 + i * 8, (i * 2654435761) % 8);
    }
    for mode in [Mode::Scalar, Mode::Ci, Mode::Vect] {
        let mut pipe = Pipeline::new(&p, mem.clone(), cfg(mode));
        assert_eq!(pipe.run(), RunExit::Halted, "{mode:?}");
        assert_eq!(
            pipe.arch_reg(10) + pipe.arch_reg(11) + pipe.arch_reg(12) + pipe.arch_reg(13),
            400,
            "{mode:?}: exactly one path per iteration"
        );
    }
}

#[test]
fn backward_hammock_inside_loop_is_safe() {
    // A data-dependent *backward* branch (retry-style) — exercises the
    // backward-branch RCP heuristic under the mechanism.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 300
    top:
        muli r4, r2, 8
        andi r4, r4, 1023
        add r4, r4, r1
        ld r5, 0(r4)
    retry:
        addi r6, r6, 1
        andi r7, r6, 3
        bne r7, r0, retry   ; spins 0..3 times depending on alignment
        add r8, r8, r5
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    for i in 0..128u64 {
        mem.write(4096 + i * 8, i);
    }
    for mode in [Mode::Scalar, Mode::Ci] {
        let mut pipe = Pipeline::new(&p, mem.clone(), cfg(mode));
        assert_eq!(pipe.run(), RunExit::Halted, "{mode:?}");
    }
}

#[test]
fn division_heavy_code_uses_long_latency_units() {
    let p = assemble(
        "t",
        "li r1, 1000000\nli r2, 7\nli r3, 0\nli r5, 40\ntop:\ndiv r1, r1, r2\naddi r3, r3, 1\nblt r3, r5, top\nhalt",
    )
    .unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    // 40 dependent 12-cycle divides dominate: at least 480 cycles.
    assert!(pipe.stats.cycles >= 480, "cycles = {}", pipe.stats.cycles);
}

#[test]
fn fp_pipeline_latencies_respected() {
    let one = 1.0f64.to_bits() as i64;
    let src = format!(
        "li r1, {one}\nli r2, {one}\nli r3, 0\nli r4, 30\ntop:\nfmul r2, r2, r1\nfadd r2, r2, r1\naddi r3, r3, 1\nblt r3, r4, top\nhalt"
    );
    let p = assemble("t", &src).unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    // 30 iterations of dependent fmul(4)+fadd(2) >= 180 cycles.
    assert!(pipe.stats.cycles >= 180, "cycles = {}", pipe.stats.cycles);
    assert_eq!(f64::from_bits(pipe.arch_reg(2)), 31.0);
}

#[test]
fn reuse_survives_a_misprediction() {
    // The mechanism's raison d'être: after a mispredicted hammock, the
    // re-fetched CI instructions find their replicas un-squashed. We
    // assert reuse still happens in a loop where every iteration's
    // branch direction is random.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 4000
    top:
        muli r4, r2, 8
        andi r4, r4, 8191
        add r4, r4, r1
        ld r5, 0(r4)
        beq r5, r0, e
        addi r6, r6, 1
        jmp j
    e:  addi r7, r7, 1
    j:  add r8, r8, r5
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    let mut x = 12345u64;
    for i in 0..1024u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        mem.write(4096 + i * 8, (x >> 60) & 1);
    }
    let mut pipe = Pipeline::new(&p, mem, cfg(Mode::Ci));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert!(
        pipe.stats.mispredicts > 200,
        "branches must actually mispredict"
    );
    assert!(
        pipe.stats.committed_reuse > 500,
        "reuse must survive mispredictions: {}",
        pipe.stats.committed_reuse
    );
    let (_, _, reused) = pipe.stats.branch_prof.event_fractions();
    assert!(reused > 0.2, "Figure 5's black bar: {reused:.2}");
}

#[test]
fn perfect_branch_prediction_eliminates_mispredicts() {
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 500
    top:
        muli r4, r2, 8
        andi r4, r4, 1023
        add r4, r4, r1
        ld r5, 0(r4)
        beq r5, r0, e
        addi r6, r6, 1
        jmp j
    e:  addi r7, r7, 1
    j:  addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    let mut x = 0x12345678u64;
    for i in 0..128u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write(4096 + i * 8, (x >> 33) & 1);
    }
    let mut c = cfg(Mode::Scalar);
    c.perfect_branch_prediction = true;
    let mut oracle = Pipeline::new(&p, mem.clone(), c);
    assert_eq!(oracle.run(), RunExit::Halted);
    assert_eq!(oracle.stats.mispredicts, 0, "the oracle never mispredicts");
    assert_eq!(oracle.stats.squashed, 0, "so nothing is ever squashed");
    assert_eq!(oracle.arch_reg(6) + oracle.arch_reg(7), 500);

    let mut real = Pipeline::new(&p, mem, cfg(Mode::Scalar));
    real.run();
    assert!(real.stats.mispredicts > 50);
    assert!(
        oracle.stats.cycles < real.stats.cycles,
        "oracle {} must beat gshare {}",
        oracle.stats.cycles,
        real.stats.cycles
    );
}

#[test]
fn stats_accessors_are_consistent() {
    let p = assemble(
        "t",
        "li r1, 0\nli r2, 60\ntop:\naddi r1, r1, 1\nblt r1, r2, top\nhalt",
    )
    .unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    pipe.run();
    let s = &pipe.stats;
    assert_eq!(s.committed, 2 + 60 * 2 + 1);
    assert!(s.fetched >= s.committed, "fetch includes wrong paths");
    assert!((s.ipc() - s.committed as f64 / s.cycles as f64).abs() < 1e-12);
    assert!(s.branches >= 60);
    assert!(
        s.reg_occupancy_sum >= s.cycles * 65,
        "arch mappings always live"
    );
}

#[test]
fn lsq_full_stalls_dispatch_but_completes() {
    // More in-flight memory ops than LSQ entries: a long chain of
    // independent stores behind a slow load.
    let mut src = String::from("li r1, 1048576\nld r2, 0(r1)\n"); // cold miss: 100 cycles
    for i in 0..100 {
        src.push_str(&format!("st r1, {}(r1)\n", 8 * i + 8));
    }
    src.push_str("halt");
    let p = assemble("t", &src).unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.stats.stores, 100);
}

#[test]
fn window_full_stalls_behind_long_latency_head() {
    // A 100-cycle miss at the head with >256 independent instructions
    // behind it: the window fills, dispatch stalls, everything retires.
    let mut src = String::from("li r1, 1048576\nld r2, 0(r1)\nadd r3, r2, r2\n");
    for i in 0..300 {
        let r = 4 + (i % 56);
        src.push_str(&format!("addi r{r}, r{r}, 1\n"));
    }
    src.push_str("halt");
    let p = assemble("t", &src).unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    assert_eq!(pipe.stats.committed, 304);
}

#[test]
fn store_conflict_triggers_full_flush_and_stays_correct() {
    // ci mode: a loop whose store writes the element the replica engine
    // just pre-loaded. The coherence check must fire, flush, and the
    // result must still be architecturally exact.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 600
    top:
        muli r4, r2, 8
        andi r4, r4, 511
        add r4, r4, r1
        ld r5, 0(r4)
        beq r5, r0, e
        addi r6, r6, 1
        jmp j
    e:  addi r7, r7, 1
    j:  add r8, r8, r5
        addi r9, r2, 1
        andi r9, r9, 511
        muli r9, r9, 8
        add r9, r9, r1
        andi r10, r2, 31
        bne r10, r0, s
        st r6, 0(r9)        ; dirty the next element
    s:  addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    let mut x = 7u64;
    for i in 0..64u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        mem.write(4096 + i * 8, (x >> 62) & 1);
    }
    // Reference result from the emulator.
    let mut emu = cfir_emu::Emulator::new(mem.clone());
    emu.run(&p, 50_000_000);
    assert!(emu.halted);

    let mut pipe = Pipeline::new(&p, mem, cfg(Mode::Ci));
    assert_eq!(pipe.run(), RunExit::Halted);
    for r in 0..64u8 {
        assert_eq!(pipe.arch_reg(r), emu.reg(r), "r{r}");
    }
    assert!(
        pipe.stats.store_conflicts > 0,
        "the ahead-store must hit a replica range at least once"
    );
}

#[test]
fn icache_misses_slow_cold_code() {
    // 600 straight-line instructions: every 64-byte line (16 insts)
    // costs a 100-cycle cold miss.
    let mut src = String::new();
    for i in 0..600 {
        let r = 1 + (i % 60);
        src.push_str(&format!("li r{r}, {i}\n"));
    }
    src.push_str("halt");
    let p = assemble("t", &src).unwrap();
    let mut pipe = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar));
    assert_eq!(pipe.run(), RunExit::Halted);
    let lines = 601_u64.div_ceil(16);
    assert!(
        pipe.stats.cycles >= lines * 100,
        "{} cycles for {} cold lines",
        pipe.stats.cycles,
        lines
    );
}

#[test]
fn interval_samples_record_progress() {
    let p = assemble(
        "t",
        "li r1, 0\nli r2, 30000\ntop:\naddi r1, r1, 1\nblt r1, r2, top\nhalt",
    )
    .unwrap();
    let mut c = cfg(Mode::Scalar);
    c.interval_cycles = 1000;
    let mut pipe = Pipeline::new(&p, MemImage::new(), c);
    assert_eq!(pipe.run(), RunExit::Halted);
    let iv = &pipe.stats.intervals;
    assert!(
        iv.len() >= 3,
        "several samples over {} cycles",
        pipe.stats.cycles
    );
    for w in iv.windows(2) {
        assert!(w[1].cycle > w[0].cycle);
        assert!(w[1].committed >= w[0].committed);
    }
    let total: f64 = pipe.stats.ipc();
    let mid = iv[iv.len() / 2].interval_ipc;
    assert!(
        (mid - total).abs() / total < 0.5,
        "steady loop: interval ~ total IPC"
    );
}

#[test]
fn specmem_mode_injects_copy_uops() {
    // In the §2.4.6 configuration every delivered reuse goes through a
    // copy uop: the stat must track it and the run must stay exact.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 1500
    top:
        muli r4, r2, 8
        andi r4, r4, 2047
        add r4, r4, r1
        ld r5, 0(r4)
        beq r5, r0, e
        addi r6, r6, 1
        jmp j
    e:  addi r7, r7, 1
    j:  add r8, r8, r5
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut mem = MemImage::new();
    let mut x = 3u64;
    for i in 0..256u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
        mem.write(4096 + i * 8, (x >> 61) & 1);
    }
    let mut c = cfg(Mode::Ci);
    c.mech = cfir_core::MechConfig::paper_with_specmem(256);
    let mut pipe = Pipeline::new(&p, mem.clone(), c);
    assert_eq!(pipe.run(), RunExit::Halted);
    assert!(
        pipe.stats.committed_reuse > 0,
        "reuse still works through the copy path"
    );
    assert!(
        pipe.stats.specmem_copies > 0,
        "every monolithic-free delivery must inject a copy"
    );
    // And it costs something: the monolithic machine is at least as fast.
    let mut mono = Pipeline::new(&p, mem, cfg(Mode::Ci));
    mono.run();
    assert!(mono.stats.cycles <= pipe.stats.cycles + pipe.stats.cycles / 10);
}

#[test]
fn one_port_vs_two_ports_never_hurts() {
    // Adding a D-cache port can only help (or tie) on a load-parallel
    // kernel.
    let src = r#"
        li r1, 4096
        li r2, 0
        li r3, 400
    top:
        muli r4, r2, 8
        andi r4, r4, 4095
        add r4, r4, r1
        ld r5, 0(r4)
        ld r6, 2048(r4)
        ld r7, 4096(r4)
        add r8, r5, r6
        add r8, r8, r7
        addi r2, r2, 1
        blt r2, r3, top
        halt
    "#;
    let p = assemble("t", src).unwrap();
    let mut one = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar).with_dports(1));
    one.run();
    let mut two = Pipeline::new(&p, MemImage::new(), cfg(Mode::Scalar).with_dports(2));
    two.run();
    assert!(
        two.stats.cycles <= one.stats.cycles,
        "2 ports {} vs 1 port {}",
        two.stats.cycles,
        one.stats.cycles
    );
}
