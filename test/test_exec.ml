(* The user-mode interpreter: ALU semantics, flags, translated memory
   access, faults, control flow, SVC and interrupt delivery. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable
module Insn = Komodo_machine.Insn
module Exec = Komodo_machine.Exec
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Psr = Komodo_machine.Psr
module Inject = Komodo_fault.Inject
module Platform = Komodo_tz.Platform

let w = Word.of_int
let r n = Regs.R n
let imm n = Insn.Imm (w n)
let reg n = Insn.Reg (r n)

(* A small machine: code at VA 0, a RW data page at VA 0x1000, a RO
   page at VA 0x2000. Physical frames in an arbitrary "secure" area. *)
let l1_base = w 0x40_0000
let l2_base = w 0x41_0000
let code_frame = w 0x50_0000
let data_frame = w 0x51_0000
let ro_frame = w 0x52_0000

let machine_with prog =
  let m = Memory.store Memory.empty l1_base (Ptable.make_l1e ~l2pt_base:l2_base) in
  let map m va frame perms =
    Memory.store m
      (Word.add l2_base (w (4 * Ptable.l2_index (w va))))
      (Ptable.make_l2e ~base:frame ~ns:false perms)
  in
  let m = map m 0x0000 code_frame Ptable.rx in
  let m = map m 0x1000 data_frame Ptable.rw in
  let m = map m 0x2000 ro_frame Ptable.r_only in
  (* Lay the program image down in the code frame. *)
  let body = Insn.encode_program prog in
  let image = Exec.code_magic :: w (List.length body) :: body in
  let m = Memory.store_range m code_frame image in
  {
    State.initial with
    State.mem = m;
    ttbr0_s = l1_base;
    cpsr = Psr.user_entry;
  }

let run ?(fuel = 10_000) ?budget prog =
  let s = machine_with prog in
  let s = { s with State.irq_budget = budget } in
  Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel ~native:(fun _ -> None)

let reg_of s n = Word.to_int (State.read_reg s (r n))

let expect_exit ?fuel ?budget prog =
  match run ?fuel ?budget prog with
  | s, Exec.Ev_svc _ -> s
  | _, e -> Alcotest.failf "expected SVC exit, got %s" (Exec.show_event e)

let exit_seq = [ Insn.I (Insn.Mov (r 0, imm 0)); Insn.I (Insn.Svc Word.zero) ]

let test_alu () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 10));
         Insn.I (Insn.Add (r 2, r 1, imm 5));
         Insn.I (Insn.Sub (r 3, r 1, imm 5));
         Insn.I (Insn.Rsb (r 4, r 1, imm 25));
         Insn.I (Insn.Mul (r 5, r 1, r 1));
         Insn.I (Insn.And_ (r 6, r 1, imm 0b1100));
         Insn.I (Insn.Orr (r 7, r 1, imm 0b0001));
         Insn.I (Insn.Eor (r 8, r 1, imm 0b1111));
         Insn.I (Insn.Bic (r 9, r 1, imm 0b0010));
         Insn.I (Insn.Mvn (r 10, imm 0));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "add" 15 (reg_of s 2);
  Alcotest.(check int) "sub" 5 (reg_of s 3);
  Alcotest.(check int) "rsb" 15 (reg_of s 4);
  Alcotest.(check int) "mul" 100 (reg_of s 5);
  Alcotest.(check int) "and" 0b1000 (reg_of s 6);
  Alcotest.(check int) "orr" 0b1011 (reg_of s 7);
  Alcotest.(check int) "eor" 0b0101 (reg_of s 8);
  Alcotest.(check int) "bic" 0b1000 (reg_of s 9);
  Alcotest.(check int) "mvn" 0xFFFF_FFFF (reg_of s 10)

let test_shifts () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 0x80));
         Insn.I (Insn.Lsl (r 2, r 1, imm 4));
         Insn.I (Insn.Lsr (r 3, r 1, imm 4));
         Insn.I (Insn.Mov (r 4, imm 0x4000_0000));
         Insn.I (Insn.Ror (r 5, r 1, imm 8));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "lsl" 0x800 (reg_of s 2);
  Alcotest.(check int) "lsr" 0x8 (reg_of s 3);
  Alcotest.(check int) "ror" 0x8000_0000 (reg_of s 5)

let test_cmn_flags () =
  (* CMN r1, r2 with r1 = -5 (two's complement) and r2 = 5: sum is zero,
     carry out set. *)
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mvn (r 1, imm 4)) (* 0xFFFFFFFB = -5 *);
         Insn.I (Insn.Mov (r 2, imm 5));
         Insn.I (Insn.Cmn (r 1, reg 2));
         Insn.If (Insn.EQ, [ Insn.I (Insn.Mov (r 3, imm 1)) ], [ Insn.I (Insn.Mov (r 3, imm 0)) ]);
         Insn.If (Insn.CS, [ Insn.I (Insn.Mov (r 4, imm 1)) ], [ Insn.I (Insn.Mov (r 4, imm 0)) ]);
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "zero flag from sum" 1 (reg_of s 3);
  Alcotest.(check int) "carry out" 1 (reg_of s 4)

let test_cmp_flags_loop () =
  (* sum 1..5 with a LS loop *)
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 0, imm 5));
         Insn.I (Insn.Mov (r 3, imm 0));
         Insn.I (Insn.Mov (r 4, imm 1));
         Insn.I (Insn.Cmp (r 4, reg 0));
         Insn.While
           ( Insn.LS,
             [
               Insn.I (Insn.Add (r 3, r 3, reg 4));
               Insn.I (Insn.Add (r 4, r 4, imm 1));
               Insn.I (Insn.Cmp (r 4, reg 0));
             ] );
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "sum 1..5" 15 (reg_of s 3)

let test_if_else () =
  let branchy v expected =
    let s =
      expect_exit
        ([
           Insn.I (Insn.Mov (r 1, imm v));
           Insn.I (Insn.Cmp (r 1, imm 10));
           Insn.If
             ( Insn.LT,
               [ Insn.I (Insn.Mov (r 2, imm 111)) ],
               [ Insn.I (Insn.Mov (r 2, imm 222)) ] );
         ]
        @ exit_seq)
    in
    Alcotest.(check int) (Printf.sprintf "v=%d" v) expected (reg_of s 2)
  in
  branchy 5 111;
  branchy 15 222

let test_memory_access () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 0x1000));
         Insn.I (Insn.Mov (r 2, imm 0xCAFE));
         Insn.I (Insn.Str (r 2, r 1, imm 8));
         Insn.I (Insn.Ldr (r 3, r 1, imm 8));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "store/load via va" 0xCAFE (reg_of s 3);
  (* The store landed in the mapped physical frame. *)
  Alcotest.(check int) "physical landing" 0xCAFE
    (Word.to_int (Memory.load s.State.mem (Word.add data_frame (w 8))))

let expect_fault prog fault =
  match run prog with
  | _, Exec.Ev_fault f ->
      Alcotest.(check bool) (Exec.show_fault fault) true (Exec.equal_fault f fault)
  | _, e -> Alcotest.failf "expected fault, got %s" (Exec.show_event e)

let test_fault_unmapped () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x9000)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
    Exec.Translation

let test_fault_write_ro () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x2000)); Insn.I (Insn.Str (r 1, r 1, imm 0)) ]
    Exec.Permission

let test_fault_unaligned () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x1001)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
    Exec.Alignment

let test_fault_undef () =
  expect_fault [ Insn.I Insn.Udf ] Exec.Undef_insn

let test_fault_falloff () =
  (* Falling off the end of the program is a prefetch abort. *)
  expect_fault [ Insn.I Insn.Nop ] Exec.Prefetch

let test_reads_allowed_on_ro () =
  let s =
    expect_exit
      ([ Insn.I (Insn.Mov (r 1, imm 0x2000)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
      @ exit_seq)
  in
  Alcotest.(check int) "ro read ok" 0 (reg_of s 2)

let test_svc_args () =
  let s, e =
    run
      [
        Insn.I (Insn.Mov (r 0, imm 3));
        Insn.I (Insn.Mov (r 1, imm 77));
        Insn.I (Insn.Svc (w 0));
      ]
  in
  (match e with
  | Exec.Ev_svc _ -> ()
  | e -> Alcotest.failf "expected svc, got %s" (Exec.show_event e));
  Alcotest.(check int) "r0 carries call" 3 (reg_of s 0);
  Alcotest.(check int) "r1 carries arg" 77 (reg_of s 1);
  (* The banked resume PC points past the SVC. *)
  Alcotest.(check int) "upc after svc" 3 (Word.to_int s.State.upc)

let test_irq_budget () =
  let s, e = run ~budget:10 [ Insn.While (Insn.AL, [ Insn.I Insn.Nop ]) ] in
  (match e with
  | Exec.Ev_irq -> ()
  | e -> Alcotest.failf "expected irq, got %s" (Exec.show_event e));
  Alcotest.(check bool) "budget consumed" true (s.State.irq_budget = Some 0)

let test_fuel_exhaustion_is_irq () =
  let _, e = run ~fuel:50 [ Insn.While (Insn.AL, [ Insn.I Insn.Nop ]) ] in
  match e with
  | Exec.Ev_irq -> ()
  | e -> Alcotest.failf "expected irq on fuel exhaustion, got %s" (Exec.show_event e)

let test_resume_mid_program () =
  (* Interrupt a counting loop, then resume from the saved pc and check
     the count completes as if uninterrupted. *)
  let prog =
    [
      Insn.I (Insn.Mov (r 3, imm 0));
      Insn.I (Insn.Mov (r 4, imm 1));
      Insn.I (Insn.Cmp (r 4, imm 100));
      Insn.While
        ( Insn.LS,
          [
            Insn.I (Insn.Add (r 3, r 3, reg 4));
            Insn.I (Insn.Add (r 4, r 4, imm 1));
            Insn.I (Insn.Cmp (r 4, imm 100));
          ] );
    ]
    @ exit_seq
  in
  let s, e = run ~budget:57 prog in
  (match e with Exec.Ev_irq -> () | e -> Alcotest.failf "want irq, got %s" (Exec.show_event e));
  let resume_pc = Word.to_int s.State.upc in
  let s = { s with State.irq_budget = None } in
  let s, e = Exec.run s ~entry_va:Word.zero ~start_pc:resume_pc ~fuel:10_000 ~native:(fun _ -> None) in
  (match e with Exec.Ev_svc _ -> () | e -> Alcotest.failf "want exit, got %s" (Exec.show_event e));
  Alcotest.(check int) "sum 1..100 despite interrupt" 5050 (reg_of s 3)

let test_bad_image () =
  (* Entry page without the code magic: prefetch abort. *)
  let s = machine_with [ Insn.I Insn.Nop ] in
  let s = { s with State.mem = Memory.store s.State.mem code_frame (w 0x1234) } in
  match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native:(fun _ -> None) with
  | _, Exec.Ev_fault Exec.Prefetch -> ()
  | _, e -> Alcotest.failf "expected prefetch abort, got %s" (Exec.show_event e)

let test_native_dispatch () =
  (* A native page naming an unregistered service faults Undef. *)
  let s = machine_with [ Insn.I Insn.Nop ] in
  let s =
    { s with State.mem = Memory.store_range s.State.mem code_frame [ Exec.native_magic; w 99 ] }
  in
  (match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native:(fun _ -> None) with
  | _, Exec.Ev_fault Exec.Undef_insn -> ()
  | _, e -> Alcotest.failf "expected undef, got %s" (Exec.show_event e));
  (* A registered one runs. *)
  let native id =
    if id = 99 then
      Some (fun st -> { Exec.nstate = State.write_reg st (r 1) (w 0x77); nevent = Exec.Ev_svc Word.zero })
    else None
  in
  match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native with
  | st, Exec.Ev_svc _ -> Alcotest.(check int) "native ran" 0x77 (reg_of st 1)
  | _, e -> Alcotest.failf "expected native svc, got %s" (Exec.show_event e)

let test_cycles_charged () =
  let s, _ = run (List.init 20 (fun _ -> Insn.I Insn.Nop) @ exit_seq) in
  Alcotest.(check bool) "cycles > 20" true (s.State.cycles >= 20)

(* Property: programs without memory ops, SVC, or UDF either exit at the
   final SVC we append or hit the fall-off prefetch fault — never any
   other fault. *)
let arb_pure_insn =
  QCheck.Gen.(
    let reg = map (fun n -> Regs.R n) (int_bound 12) in
    let operand =
      oneof [ map (fun r -> Insn.Reg r) reg; map (fun n -> Insn.Imm (Word.of_int n)) (int_bound 1000) ]
    in
    oneof
      [
        map2 (fun r o -> Insn.Mov (r, o)) reg operand;
        map3 (fun a b o -> Insn.Add (a, b, o)) reg reg operand;
        map3 (fun a b o -> Insn.Eor (a, b, o)) reg reg operand;
        map2 (fun r o -> Insn.Cmp (r, o)) reg operand;
      ])

let prop_pure_programs_exit =
  QCheck.Test.make ~name:"pure straight-line programs exit cleanly" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) (map (fun i -> Insn.I i) arb_pure_insn)))
    (fun body ->
      match run (body @ exit_seq) with
      | _, Exec.Ev_svc _ -> true
      | _ -> false)

(* -- Allocation-free bursts ------------------------------------------- *)

(* A burst steps its own state in place: its allocation is the same for
   10k and 100k steps of the no-budget spinner (the burst record, its
   closures, one [State.t] at the end), never a per-step rate. *)
let test_burst_allocation () =
  let s = machine_with Komodo_user.Progs.spin_forever in
  let prog = Insn.flatten Komodo_user.Progs.spin_forever in
  let burst fuel =
    let steps = ref 0 in
    let before = Gc.minor_words () in
    let s', e =
      Exec.run_bytecode ~probe:(fun ~steps:n -> steps := n) s prog ~start_pc:0 ~fuel
    in
    let words = Gc.minor_words () -. before in
    (match e with
    | Exec.Ev_irq -> ()
    | e -> Alcotest.failf "expected fuel irq, got %s" (Exec.show_event e));
    (s', !steps, words)
  in
  ignore (burst 100);
  let s10, steps10, words10 = burst 10_000 in
  let s100, steps100, words100 = burst 100_000 in
  Alcotest.(check int) "10k steps retired" 10_000 steps10;
  Alcotest.(check int) "100k steps retired" 100_000 steps100;
  (* MOV, then ADD (1 cycle) and the loop branch (2) alternating. *)
  Alcotest.(check int) "10k cycles" 14_999 (s10.State.cycles - s.State.cycles);
  Alcotest.(check int) "100k cycles" 149_999 (s100.State.cycles - s.State.cycles);
  Alcotest.(check int) "counter after 10k" 5_000 (reg_of s10 3);
  Alcotest.(check int) "resume pc" 2 (Word.to_int s100.State.upc);
  if words100 -. words10 > 64. then
    Alcotest.failf "burst allocation grows with steps: %.0f words at 10k, %.0f at 100k"
      words10 words100

(* -- Equivalence with the reference interpreter ------------------------ *)

(* Random flat programs over every instruction, SP/LR included, with
   loads and stores through the test page table (RW at 0x1000, RO at
   0x2000, nothing at 0x9000), faults and SVCs; run by both
   interpreters under the same fuel, IRQ budget and injection plan. *)
let gen_reg =
  QCheck.Gen.(
    frequency
      [ (13, map (fun n -> Regs.R n) (int_bound 12)); (2, return Regs.SP); (2, return Regs.LR) ])

let gen_word =
  QCheck.Gen.(
    map Word.of_int
      (oneof
         [
           int_bound 40;
           oneofl
             [
               0x1000; 0x1800; 0x2000; 0x9000; 0x7FFF_FFFF; 0x8000_0000;
               0x8000_0001; 0xFFFF_FFFE; 0xFFFF_FFFF;
             ];
           int;
         ]))

let gen_operand = QCheck.Gen.(oneof [ map (fun r -> Insn.Reg r) gen_reg; map (fun w -> Insn.Imm w) gen_word ])

let gen_mem_insn =
  QCheck.Gen.(
    let base = frequency [ (3, oneofl [ r 1; r 2; Regs.SP ]); (1, gen_reg) ] in
    let offset =
      frequency
        [
          (4, map (fun n -> Insn.Imm (w n)) (oneofl [ 0; 4; 8; 0x7FC; 0xFFC; 0x1000; 2; 0xFFFF_FFFC ]));
          (1, gen_operand);
        ]
    in
    oneof
      [
        map3 (fun rd rn o -> Insn.Ldr (rd, rn, o)) gen_reg base offset;
        map3 (fun rd rn o -> Insn.Str (rd, rn, o)) gen_reg base offset;
      ])

let gen_insn =
  QCheck.Gen.(
    let three f = map3 f gen_reg gen_reg gen_operand in
    frequency
      [
        (3, map2 (fun rd o -> Insn.Mov (rd, o)) gen_reg gen_operand);
        (1, map2 (fun rd o -> Insn.Mvn (rd, o)) gen_reg gen_operand);
        (2, three (fun a b o -> Insn.Add (a, b, o)));
        (1, three (fun a b o -> Insn.Sub (a, b, o)));
        (1, three (fun a b o -> Insn.Rsb (a, b, o)));
        (1, map3 (fun a b c -> Insn.Mul (a, b, c)) gen_reg gen_reg gen_reg);
        (1, three (fun a b o -> Insn.And_ (a, b, o)));
        (1, three (fun a b o -> Insn.Orr (a, b, o)));
        (1, three (fun a b o -> Insn.Eor (a, b, o)));
        (1, three (fun a b o -> Insn.Bic (a, b, o)));
        (1, three (fun a b o -> Insn.Lsl (a, b, o)));
        (1, three (fun a b o -> Insn.Lsr (a, b, o)));
        (1, three (fun a b o -> Insn.Asr (a, b, o)));
        (1, three (fun a b o -> Insn.Ror (a, b, o)));
        (2, map2 (fun rn o -> Insn.Cmp (rn, o)) gen_reg gen_operand);
        (1, map2 (fun rn o -> Insn.Cmn (rn, o)) gen_reg gen_operand);
        (1, map2 (fun rn o -> Insn.Tst (rn, o)) gen_reg gen_operand);
        (5, gen_mem_insn);
        (1, map (fun n -> Insn.Svc (w n)) (int_bound 9));
        (1, return Insn.Udf);
        (1, return Insn.Nop);
      ])

let gen_cond =
  QCheck.Gen.oneofl
    Insn.[ EQ; NE; CS; CC; MI; PL; HI; LS; GE; LT; GT; LE; AL ]

let rec gen_stmt depth =
  QCheck.Gen.(
    let leaf = map (fun i -> Insn.I i) gen_insn in
    if depth = 0 then leaf
    else
      let block = list_size (int_bound 4) (gen_stmt (depth - 1)) in
      frequency
        [
          (10, leaf);
          (1, map3 (fun c t e -> Insn.If (c, t, e)) gen_cond block block);
          (1, map2 (fun c b -> Insn.While (c, b)) gen_cond block);
        ])

(* Where the environment writes: the RW data frame (visible to the
   program's loads), the L2 entry mapping VA 0x1000 (unmapping it
   mid-burst), and the monitor image (blocked by the TZASC). *)
let gen_action =
  QCheck.Gen.(
    let addr =
      oneof
        [
          map (fun i -> Word.to_int data_frame + (4 * i)) (int_bound 8);
          return (Word.to_int l2_base + 4);
          return 0x4000_0000;
        ]
    in
    frequency
      [
        (1, return Inject.Irq);
        (1, return Inject.Fiq);
        (3, map2 (fun addr value -> Inject.Mem_write { addr; value }) addr (oneofl [ 0; 7; 0x1000 ]));
      ])

type case = {
  body : Insn.stmt list;
  mode : Mode.t;
  fuel : int;
  budget : int option;
  start_pc : int;
  plan : Inject.plan_item list;
}

let gen_case =
  QCheck.Gen.(
    let* body = list_size (int_range 0 30) (gen_stmt 2) in
    let* mode = oneofl [ Mode.User; Mode.User; Mode.Supervisor ] in
    let* fuel = frequency [ (1, int_range (-2) 2); (6, int_range 3 300) ] in
    let* budget =
      frequency
        [
          (3, return None);
          (1, return (Some 0));
          (1, map Option.some (int_range (-5) (-1)));
          (3, map Option.some (int_range 1 200));
        ]
    in
    let* start_pc = frequency [ (8, return 0); (1, int_range (-2) 60) ] in
    let* plan =
      list_size (int_bound 3)
        (map2 (fun k action -> { Inject.point = Inject.Insn k; action }) (int_bound 40) gen_action)
    in
    return { body; mode; fuel; budget; start_pc; plan })

(* The prelude points r1, r2 and SP at the mapped pages. *)
let case_prog c =
  Insn.
    [
      I (Mov (r 1, imm 0x1000));
      I (Mov (r 2, imm 0x2000));
      I (Mov (Regs.SP, imm 0x1800));
      I (Mov (Regs.LR, imm 0x1004));
    ]
  @ c.body

let print_case c =
  Printf.sprintf "mode=%s fuel=%d budget=%s start_pc=%d plan=[%s] prog=[%s]"
    (Mode.show c.mode) c.fuel
    (match c.budget with None -> "none" | Some b -> string_of_int b)
    c.start_pc
    (String.concat "; " (List.map Inject.pp_item c.plan))
    (String.concat " "
       (List.map (Printf.sprintf "%08x")
          (List.map Word.to_int (Insn.encode_program (case_prog c)))))

(* Run one interpreter with a fresh injector armed with the case's
   plan; report its final state and event, the retired-step probe,
   the number of instruction boundaries and what fired. *)
let run_case run c =
  let prog = case_prog c in
  let s = machine_with prog in
  let s =
    { s with State.cpsr = Psr.make ~irq_masked:false ~fiq_masked:false c.mode; irq_budget = c.budget }
  in
  let inj = Inject.create ~plat:Platform.default () in
  Inject.arm inj c.plan;
  let hook = Inject.exec_inject inj in
  let boundaries = ref 0 in
  let hook = { hook with Exec.due = (fun () -> incr boundaries; hook.Exec.due ()) } in
  let steps = ref (-1) in
  let s', ev =
    run ~probe:(fun ~steps:n -> steps := n) ~hook s (Insn.flatten prog) ~start_pc:c.start_pc
      ~fuel:c.fuel
  in
  (s', ev, !steps, !boundaries, Inject.fired inj)

let prop_matches_reference =
  QCheck.Test.make ~name:"burst interpreter = reference interpreter" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let s1, e1, n1, b1, f1 =
        run_case (fun ~probe ~hook -> Exec.run_bytecode ~probe ~inject:hook) c
      in
      let s2, e2, n2, b2, f2 =
        run_case
          (fun ~probe ~hook ->
            (* The reference takes the seed's one-piece hook. *)
            Exec_ref.run_bytecode ~probe ~inject:(fun s ->
                if hook.Exec.due () then hook.Exec.fire s else (s, None)))
          c
      in
      State.equal s1 s2
      && s1.State.cycles = s2.State.cycles
      && Word.equal s1.State.upc s2.State.upc
      && Word.equal s1.State.far s2.State.far
      && s1.State.irq_budget = s2.State.irq_budget
      && Exec.equal_event e1 e2
      && n1 = n2 && b1 = b2 && f1 = f2)

let suite =
  [
    Alcotest.test_case "alu semantics" `Quick test_alu;
    Alcotest.test_case "shift semantics" `Quick test_shifts;
    Alcotest.test_case "cmn sets flags from addition" `Quick test_cmn_flags;
    Alcotest.test_case "cmp flags drive loops" `Quick test_cmp_flags_loop;
    Alcotest.test_case "if/else both arms" `Quick test_if_else;
    Alcotest.test_case "memory via page table" `Quick test_memory_access;
    Alcotest.test_case "fault: unmapped" `Quick test_fault_unmapped;
    Alcotest.test_case "fault: write to read-only" `Quick test_fault_write_ro;
    Alcotest.test_case "fault: unaligned" `Quick test_fault_unaligned;
    Alcotest.test_case "fault: undefined instruction" `Quick test_fault_undef;
    Alcotest.test_case "fault: fall off end" `Quick test_fault_falloff;
    Alcotest.test_case "read-only pages readable" `Quick test_reads_allowed_on_ro;
    Alcotest.test_case "svc delivers args" `Quick test_svc_args;
    Alcotest.test_case "irq budget fires" `Quick test_irq_budget;
    Alcotest.test_case "fuel exhaustion behaves as irq" `Quick test_fuel_exhaustion_is_irq;
    Alcotest.test_case "resume mid-program" `Quick test_resume_mid_program;
    Alcotest.test_case "bad code image" `Quick test_bad_image;
    Alcotest.test_case "native dispatch" `Quick test_native_dispatch;
    Alcotest.test_case "cycles charged" `Quick test_cycles_charged;
    Testlib.qcheck prop_pure_programs_exit;
    Alcotest.test_case "burst allocation independent of steps" `Quick test_burst_allocation;
    Testlib.qcheck prop_matches_reference;
  ]
