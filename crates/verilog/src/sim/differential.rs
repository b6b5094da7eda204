//! Differential tests pinning the compiled VM bit-identical to the
//! reference engine: same output values after every stimulus step, same
//! `SimError` classification (compared by `Display`, which is what the
//! eval harness folds into verdicts) on every failure path. On both
//! backends, driving through resolved slots is pinned to driving by name.

use super::{SimDesign, SimError, SimInstance, SimMode};

/// One stimulus step applied identically to both backends.
enum Step<'a> {
    Set(&'a str, u64),
    Clock(&'a str),
}
use Step::{Clock, Set};

/// Builds `top` under both modes, applies `steps` to both instances, and
/// asserts outputs (and error strings) agree after every step. A second
/// instance per mode takes the same steps through `input_slot`/`set_slot`
/// and must read back, through `get_slot`, what `get` reads on the first.
/// Returns whether the compiled backend was actually engaged (vs.
/// fallback).
fn assert_identical(src: &str, top: &str, steps: &[Step<'_>]) -> bool {
    let compiled = SimDesign::build(src, top, SimMode::Compiled).expect("build compiled");
    let reference = SimDesign::build(src, top, SimMode::Reference).expect("build reference");
    let mut c = compiled.instantiate().expect("instantiate compiled");
    let mut r = reference.instantiate().expect("instantiate reference");
    let mut c_slots = compiled.instantiate().expect("instantiate compiled");
    let mut r_slots = reference.instantiate().expect("instantiate reference");
    assert_outputs_equal(&c, &r, "initial");
    for (i, step) in steps.iter().enumerate() {
        let (cr, rr) = match step {
            Set(name, v) => (c.set(name, *v), r.set(name, *v)),
            Clock(clk) => (c.clock(clk), r.clock(clk)),
        };
        for (by_name, name_result, by_slot) in [(&c, &cr, &mut c_slots), (&r, &rr, &mut r_slots)] {
            let slot_result = step_by_slot(by_slot, step);
            assert_eq!(
                slot_result.as_ref().map_err(ToString::to_string),
                name_result.as_ref().map_err(ToString::to_string),
                "slot vs name result at step {i}"
            );
            if slot_result.is_ok() {
                assert_slot_reads_agree(by_name, by_slot, &format!("step {i}"));
            }
        }
        match (&cr, &rr) {
            (Ok(()), Ok(())) => {}
            (Err(ce), Err(re)) => {
                assert_eq!(ce.to_string(), re.to_string(), "error mismatch at step {i}");
                return compiled.is_compiled();
            }
            _ => panic!("result mismatch at step {i}: compiled={cr:?} reference={rr:?}"),
        }
        assert_outputs_equal(&c, &r, &format!("step {i}"));
    }
    compiled.is_compiled()
}

/// Applies one step through resolved slots.
fn step_by_slot(sim: &mut SimInstance, step: &Step<'_>) -> Result<(), SimError> {
    match step {
        Set(name, v) => {
            let slot = sim.input_slot(name)?;
            sim.set_slot(slot, *v)
        }
        Clock(clk) => {
            let slot = sim.input_slot(clk)?;
            sim.clock_slot(slot)
        }
    }
}

/// Every output read by resolved slot on `by_slot` equals `get` on
/// `by_name` (same backend, same steps applied).
fn assert_slot_reads_agree(by_name: &SimInstance, by_slot: &SimInstance, at: &str) {
    for out in by_name.outputs() {
        let slot = by_slot.signal_slot(out).expect("an output resolves");
        assert_eq!(by_slot.get_slot(slot), by_name.get(out).expect("get"), "`{out}` at {at}");
    }
}

fn assert_outputs_equal(c: &SimInstance, r: &SimInstance, at: &str) {
    assert_eq!(c.outputs(), r.outputs(), "output lists diverge at {at}");
    for out in r.outputs() {
        let cv = c.get(out).expect("compiled get");
        let rv = r.get(out).expect("reference get");
        assert_eq!(cv.as_u64(), rv.as_u64(), "`{out}` value diverges at {at}");
        assert_eq!(cv.width(), rv.width(), "`{out}` width diverges at {at}");
    }
}

#[test]
fn combinational_assigns_agree() {
    let src = "module ha(input a, input b, output sum, output cout);\n\
               assign sum = a ^ b; assign cout = a & b; endmodule";
    let mut steps = Vec::new();
    for a in 0..2u64 {
        for b in 0..2u64 {
            steps.push(Set("a", a));
            steps.push(Set("b", b));
        }
    }
    assert!(assert_identical(src, "ha", &steps));
}

#[test]
fn concat_lvalue_adder_agrees() {
    let src = "module add(input [7:0] a, b, input cin, output [7:0] s, output cout);\n\
               assign {cout, s} = a + b + cin; endmodule";
    assert!(assert_identical(
        src,
        "add",
        &[Set("a", 200), Set("b", 100), Set("cin", 1), Set("a", 255), Set("b", 255)],
    ));
}

#[test]
fn clocked_counter_agrees() {
    let src = "module counter(input clk, input rst, input en, output reg [3:0] q);\n\
               always @(posedge clk) begin\n\
                 if (rst) q <= 4'd0; else if (en) q <= q + 4'd1;\n\
               end endmodule";
    let mut steps = vec![Set("rst", 1), Clock("clk"), Set("rst", 0), Set("en", 1)];
    for _ in 0..20 {
        steps.push(Clock("clk"));
    }
    steps.push(Set("en", 0));
    steps.push(Clock("clk"));
    assert!(assert_identical(src, "counter", &steps));
}

#[test]
fn async_reset_agrees() {
    let src = "module dff(input clk, input rst, input d, output reg q);\n\
               always @(posedge clk or posedge rst) begin\n\
                 if (rst) q <= 1'b0; else q <= d;\n\
               end endmodule";
    assert!(assert_identical(
        src,
        "dff",
        &[Set("d", 1), Clock("clk"), Set("rst", 1), Set("rst", 0), Clock("clk")],
    ));
}

#[test]
fn case_decoder_agrees() {
    let src = "module dec(input [1:0] sel, output reg [3:0] y);\n\
               always @* case (sel)\n\
                 2'd0: y = 4'b0001; 2'd1: y = 4'b0010;\n\
                 2'd2: y = 4'b0100; default: y = 4'b1000; endcase endmodule";
    assert!(assert_identical(
        src,
        "dec",
        &[Set("sel", 0), Set("sel", 1), Set("sel", 2), Set("sel", 3)],
    ));
}

#[test]
fn nonblocking_swap_agrees() {
    let src = "module swap(input clk, input load, input [3:0] ia, ib, output reg [3:0] a, b);\n\
               always @(posedge clk) begin\n\
                 if (load) begin a <= ia; b <= ib; end\n\
                 else begin a <= b; b <= a; end\n\
               end endmodule";
    assert!(assert_identical(
        src,
        "swap",
        &[Set("load", 1), Set("ia", 3), Set("ib", 9), Clock("clk"), Set("load", 0), Clock("clk")],
    ));
}

#[test]
fn hierarchical_ripple_adder_agrees() {
    let src = "module fa(input a, input b, input cin, output s, output cout);\n\
               assign s = a ^ b ^ cin;\n\
               assign cout = (a & b) | (a & cin) | (b & cin);\nendmodule\n\
               module rca4(input [3:0] a, b, input cin, output [3:0] s, output cout);\n\
               wire c0, c1, c2;\n\
               fa f0(.a(a[0]), .b(b[0]), .cin(cin), .s(s[0]), .cout(c0));\n\
               fa f1(.a(a[1]), .b(b[1]), .cin(c0), .s(s[1]), .cout(c1));\n\
               fa f2(.a(a[2]), .b(b[2]), .cin(c1), .s(s[2]), .cout(c2));\n\
               fa f3(.a(a[3]), .b(b[3]), .cin(c2), .s(s[3]), .cout(cout));\nendmodule";
    let mut steps = Vec::new();
    for a in 0..16u64 {
        for b in 0..16u64 {
            steps.push(Set("a", a));
            steps.push(Set("b", b));
        }
    }
    assert!(assert_identical(src, "rca4", &steps));
}

#[test]
fn memory_write_read_agrees() {
    let src = "module ram(input clk, input we, input [3:0] addr, input [7:0] din, \
               output reg [7:0] dout);\n\
               reg [7:0] mem [0:15];\n\
               always @(posedge clk) begin\n\
                 if (we) mem[addr] <= din;\n\
                 dout <= mem[addr];\n\
               end endmodule";
    assert!(assert_identical(
        src,
        "ram",
        &[
            Set("we", 1),
            Set("addr", 5),
            Set("din", 0xAB),
            Clock("clk"),
            Set("addr", 9),
            Set("din", 0x42),
            Clock("clk"),
            Set("we", 0),
            Set("addr", 5),
            Clock("clk"),
            Set("addr", 9),
            Clock("clk"),
            Set("addr", 15), // never written: reads as zero in both
            Clock("clk"),
        ],
    ));
}

#[test]
fn for_loop_reverser_agrees() {
    let src = "module rev(input [7:0] a, output reg [7:0] y);\n\
               integer i;\n\
               always @* begin\n\
                 for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];\n\
               end endmodule";
    assert!(
        assert_identical(src, "rev", &[Set("a", 0b1100_1010), Set("a", 0xFF), Set("a", 0x01)],)
    );
}

#[test]
fn fsm_sequence_detector_agrees() {
    let src = "module det(input clk, input rst, input x, output y);\n\
               reg [1:0] state, next;\n\
               localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2, S3 = 2'd3;\n\
               always @(posedge clk) begin\n\
                 if (rst) state <= S0; else state <= next;\n\
               end\n\
               always @* begin\n\
                 case (state)\n\
                   S0: next = x ? S1 : S0;\n\
                   S1: next = x ? S1 : S2;\n\
                   S2: next = x ? S3 : S0;\n\
                   S3: next = x ? S1 : S2;\n\
                   default: next = S0;\n\
                 endcase\n\
               end\n\
               assign y = state == S3;\nendmodule";
    let mut steps = vec![Set("rst", 1), Clock("clk"), Set("rst", 0)];
    for x in [1u64, 0, 1, 1, 0, 1, 0, 0, 1] {
        steps.push(Set("x", x));
        steps.push(Clock("clk"));
    }
    assert!(assert_identical(src, "det", &steps));
}

#[test]
fn shift_and_signed_ops_agree() {
    let src = "module sh(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r, \
               output signed [7:0] ar);\n\
               assign l = a << n; assign r = a >> n; assign ar = $signed(a) >>> n; endmodule";
    let mut steps = Vec::new();
    for a in [0x90u64, 0x01, 0xFF, 0x7F] {
        for n in 0..8u64 {
            steps.push(Set("a", a));
            steps.push(Set("n", n));
        }
    }
    assert!(assert_identical(src, "sh", &steps));
}

#[test]
fn division_modulo_by_zero_agree() {
    let src = "module d(input [7:0] a, b, output [7:0] q, output [7:0] r);\n\
               assign q = a / b; assign r = a % b; endmodule";
    assert!(assert_identical(
        src,
        "d",
        &[Set("a", 42), Set("b", 0), Set("b", 5), Set("a", 255), Set("b", 3)],
    ));
}

#[test]
fn reduction_and_clog2_agree() {
    let src = "module rc(input [7:0] a, output all, output any, output par, output [4:0] y);\n\
               assign all = &a; assign any = |a; assign par = ^a;\n\
               assign y = $clog2(a); endmodule";
    let mut steps = Vec::new();
    for a in 0..=255u64 {
        steps.push(Set("a", a));
    }
    assert!(assert_identical(src, "rc", &steps));
}

#[test]
fn indexed_part_select_agrees() {
    let src = "module ips(input [31:0] a, input [1:0] sel, output [7:0] y);\n\
               assign y = a[sel*8 +: 8]; endmodule";
    assert!(assert_identical(
        src,
        "ips",
        &[Set("a", 0xDDCC_BBAA), Set("sel", 0), Set("sel", 1), Set("sel", 2), Set("sel", 3)],
    ));
}

#[test]
fn string_literal_widths_agree() {
    let src = "module str(input e, output [31:0] y, output [7:0] z);\n\
               assign y = e ? \"AB\" : 32'd0; assign z = \"Z\"; endmodule";
    assert!(assert_identical(src, "str", &[Set("e", 1), Set("e", 0)]));
}

#[test]
fn parameterized_width_agrees() {
    let src = "module p #(parameter W = 16)(input [W-1:0] a, output [W-1:0] y);\n\
               assign y = a + 1'b1; endmodule";
    assert!(assert_identical(src, "p", &[Set("a", 0xFFFF), Set("a", 7)]));
}

#[test]
fn oscillating_design_fails_identically_at_instantiation() {
    let src = "module osc(input a, output y); wire n; assign n = ~n; \
               assign y = n & a; endmodule";
    let ce = SimDesign::build(src, "osc", SimMode::Compiled)
        .expect("build")
        .instantiate()
        .expect_err("oscillation");
    let re = SimDesign::build(src, "osc", SimMode::Reference)
        .expect("build")
        .instantiate()
        .expect_err("oscillation");
    assert_eq!(ce.to_string(), re.to_string());
}

#[test]
fn runaway_loop_fails_identically() {
    // The loop variable wraps at 4 bits, so `i < 20` never terminates.
    let src = "module lp(input a, output reg y);\n\
               reg [3:0] i;\n\
               always @* begin\n\
                 y = a;\n\
                 for (i = 0; i < 20; i = i + 1) y = y ^ a;\n\
               end endmodule";
    let cr = SimDesign::build(src, "lp", SimMode::Compiled).expect("build").instantiate();
    let rr = SimDesign::build(src, "lp", SimMode::Reference).expect("build").instantiate();
    match (cr, rr) {
        (Err(ce), Err(re)) => assert_eq!(ce.to_string(), re.to_string()),
        other => panic!("expected both to fail: {other:?}"),
    }
}

#[test]
fn api_errors_agree() {
    let src = "module m(input a, output y); assign y = a; endmodule";
    let cd = SimDesign::build(src, "m", SimMode::Compiled).expect("build");
    let rd = SimDesign::build(src, "m", SimMode::Reference).expect("build");
    let mut c = cd.instantiate().expect("inst");
    let mut r = rd.instantiate().expect("inst");
    assert_eq!(
        c.set("y", 1).expect_err("not an input").to_string(),
        r.set("y", 1).expect_err("not an input").to_string(),
    );
    assert_eq!(
        c.get("zz").expect_err("unknown").to_string(),
        r.get("zz").expect_err("unknown").to_string(),
    );
    // Slot resolution fails exactly as the by-name calls do.
    for sim in [&mut c, &mut r] {
        let output = sim.input_slot("y").expect_err("an output is not an input");
        assert!(matches!(output, SimError::NotAnInput(_)), "{output:?}");
        assert_eq!(output.to_string(), sim.set("y", 1).expect_err("set").to_string());
        let unknown = sim.signal_slot("zz").expect_err("unknown");
        assert!(matches!(unknown, SimError::UnknownSignal(_)), "{unknown:?}");
        assert_eq!(unknown.to_string(), sim.get("zz").expect_err("get").to_string());
        let unknown_input = sim.input_slot("zz").expect_err("unknown input");
        assert_eq!(unknown_input.to_string(), sim.set("zz", 1).expect_err("set").to_string());
        let input = sim.input_slot("a").expect("input");
        assert_eq!(sim.signal_slot("a").map(|s| sim.get_slot(s)), sim.get("a"));
        sim.set_slot(input, 1).expect("drive");
        assert_eq!(sim.get("y").expect("get").as_u64(), 1);
    }
    assert_eq!(c.inputs(), r.inputs());
    assert_eq!(c.outputs(), r.outputs());
}

#[test]
fn runtime_varying_select_falls_back_to_reference() {
    // The indexed-select *width* reads an input, which the compiler cannot
    // fold statically — the facade must fall back, and results still agree.
    let src = "module f(input [7:0] a, input [2:0] w, output [7:0] y);\n\
               assign y = a[0 +: w]; endmodule";
    let engaged =
        assert_identical(src, "f", &[Set("a", 0xA5), Set("w", 1), Set("w", 3), Set("w", 7)]);
    assert!(!engaged, "expected reference fallback for runtime-varying select width");
}

#[test]
fn typical_designs_actually_compile() {
    // Guard against the fast path silently degrading to always-fallback.
    for (src, top) in [
        (
            "module counter(input clk, input rst, output reg [3:0] q);\n\
             always @(posedge clk) begin if (rst) q <= 4'd0; else q <= q + 4'd1; end endmodule",
            "counter",
        ),
        ("module ha(input a, b, output s, c); assign s = a ^ b; assign c = a & b; endmodule", "ha"),
    ] {
        let d = SimDesign::build(src, top, SimMode::Compiled).expect("build");
        assert!(d.is_compiled(), "{top} should compile");
    }
}

#[test]
fn straight_line_designs_get_a_settle_schedule() {
    // Guard against the one-pass schedule silently degrading to the
    // iterate-to-fixpoint loop on the common case: acyclic, loop-free
    // combinational logic (declared here in anti-topological order so the
    // analysis actually has to sort).
    let src = "module m(input a, input b, output y, output z);\n\
               wire t;\n\
               assign y = t | a;\n\
               assign z = t ^ b;\n\
               assign t = a & b;\n\
               endmodule";
    let d = SimDesign::build(src, "m", SimMode::Compiled).expect("build");
    let prog = d.prog.as_ref().expect("compiles");
    assert!(prog.schedule.is_some(), "acyclic design must get a schedule");
    assert_identical(src, "m", &[Set("a", 1), Set("b", 1), Set("a", 0), Set("b", 0), Set("b", 1)]);
}

#[test]
fn cyclic_and_looping_designs_fall_back_to_the_settle_loop() {
    // A combinational cycle (settles at zero, but the fixpoint is not
    // provable by topological order) and a for-loop body (backward jump)
    // must both decline the schedule yet stay bit-identical via the
    // iterate-to-fixpoint path.
    let cyclic = "module c(input a, output y);\n\
                  wire p, q;\n\
                  assign p = q & a;\n\
                  assign q = p;\n\
                  assign y = q;\n\
                  endmodule";
    let looping = "module l(input [7:0] x, output reg [7:0] y);\n\
                   integer i;\n\
                   always @* begin\n\
                   for (i = 0; i < 8; i = i + 1) y[i] = x[7 - i];\n\
                   end\n\
                   endmodule";
    for (src, top) in [(cyclic, "c"), (looping, "l")] {
        let d = SimDesign::build(src, top, SimMode::Compiled).expect("build");
        let prog = d.prog.as_ref().expect("still compiles to bytecode");
        assert!(prog.schedule.is_none(), "{top} must not be scheduled");
    }
    assert_identical(cyclic, "c", &[Set("a", 1), Set("a", 0)]);
    assert_identical(looping, "l", &[Set("x", 0xA5), Set("x", 0x3C)]);
}

#[test]
fn multi_writer_slots_decline_the_schedule() {
    // Two assigns driving the same net: the engine iterates them in
    // declaration order (last writer wins per iteration — here that even
    // oscillates for a=0), so a fixed order must not pretend to settle it.
    let src = "module w(input a, output y);\n\
               assign y = a;\n\
               assign y = ~a;\n\
               endmodule";
    let d = SimDesign::build(src, "w", SimMode::Compiled).expect("build");
    let prog = d.prog.as_ref().expect("compiles");
    assert!(prog.schedule.is_none(), "multi-writer must not be scheduled");
    // Both backends must classify the conflicting drive identically.
    let c = SimDesign::build(src, "w", SimMode::Compiled).expect("build");
    let r = SimDesign::build(src, "w", SimMode::Reference).expect("build");
    let ci = c.instantiate().map(|_| ()).map_err(|e| e.to_string());
    let ri = r.instantiate().map(|_| ()).map_err(|e| e.to_string());
    assert_eq!(ci, ri, "conflicting-driver verdict must agree");
}

mod random_stimulus {
    use super::super::{SimDesign, SimMode};
    use proptest::prelude::*;

    /// Drives both backends with the same pseudo-random stimulus stream and
    /// asserts identical outputs after every step.
    fn drive_both(src: &str, top: &str, inputs: &[(&str, u64)], clk: Option<&str>, seed: u64) {
        let cd = SimDesign::build(src, top, SimMode::Compiled).expect("build compiled");
        let rd = SimDesign::build(src, top, SimMode::Reference).expect("build reference");
        assert!(cd.is_compiled(), "{top} should engage the VM");
        let mut c = cd.instantiate().expect("inst compiled");
        let mut r = rd.instantiate().expect("inst reference");
        let mut c_slots = cd.instantiate().expect("inst compiled");
        let mut r_slots = rd.instantiate().expect("inst reference");
        let mut state = seed | 1;
        for step in 0..40 {
            for (name, mask) in inputs {
                // xorshift64 keeps the stimulus deterministic per seed.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = state & mask;
                c.set(name, v).expect("compiled set");
                r.set(name, v).expect("reference set");
                for sim in [&mut c_slots, &mut r_slots] {
                    super::step_by_slot(sim, &super::Set(name, v)).expect("set_slot");
                }
            }
            if let Some(clk) = clk {
                c.clock(clk).expect("compiled clock");
                r.clock(clk).expect("reference clock");
                for sim in [&mut c_slots, &mut r_slots] {
                    super::step_by_slot(sim, &super::Clock(clk)).expect("clock_slot");
                }
            }
            for out in rd.instantiate().expect("inst").outputs() {
                assert_eq!(
                    c.get(out).expect("get").as_u64(),
                    r.get(out).expect("get").as_u64(),
                    "`{out}` diverges at step {step} (seed {seed})"
                );
            }
            super::assert_slot_reads_agree(&c, &c_slots, &format!("step {step} (seed {seed})"));
            super::assert_slot_reads_agree(&r, &r_slots, &format!("step {step} (seed {seed})"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn alu_agrees_on_random_stimulus(seed in 0u64..10_000) {
            let src = "module alu(input [2:0] op, input [7:0] a, b, output reg [7:0] y);\n\
                       always @* case (op)\n\
                         3'd0: y = a + b; 3'd1: y = a - b; 3'd2: y = a & b;\n\
                         3'd3: y = a | b; 3'd4: y = a ^ b; 3'd5: y = a << b[2:0];\n\
                         3'd6: y = a >> b[2:0]; default: y = a * b; endcase endmodule";
            drive_both(src, "alu", &[("op", 7), ("a", 0xFF), ("b", 0xFF)], None, seed);
        }

        #[test]
        fn shift_register_agrees_on_random_stimulus(seed in 0u64..10_000) {
            let src = "module sr(input clk, input rst, input d, output reg [7:0] q);\n\
                       always @(posedge clk) begin\n\
                         if (rst) q <= 8'd0; else q <= {q[6:0], d};\n\
                       end endmodule";
            drive_both(src, "sr", &[("rst", 0), ("d", 1)], Some("clk"), seed);
        }

        #[test]
        fn memory_agrees_on_random_stimulus(seed in 0u64..10_000) {
            let src = "module ram(input clk, input we, input [2:0] addr, input [7:0] din,\n\
                       output reg [7:0] dout);\n\
                       reg [7:0] mem [0:7];\n\
                       always @(posedge clk) begin\n\
                         if (we) mem[addr] <= din;\n\
                         dout <= mem[addr];\n\
                       end endmodule";
            drive_both(
                src,
                "ram",
                &[("we", 1), ("addr", 7), ("din", 0xFF)],
                Some("clk"),
                seed,
            );
        }
    }
}
