(** Multi-core lock-discipline campaigns over the interleaved stepper.

    Each trial boots the platform, runs a short sequential prelude
    giving every CPU its own unfinalised address space, then races a
    seeded per-CPU stream of construction calls over a small shared
    page pool through {!Komodo_os.Smp.run}. Three oracles judge the
    run:

    - {b deadlock}: the stepper's wait-for cycle detector fired — with
      the ascending acquisition order this is impossible by
      construction, so any cycle is a violation;
    - {b invariant}: {!Komodo_core.Pagedb.check} on the final shared
      state (lost updates from under-locking corrupt the PageDB);
    - {b linearisability}: {!Komodo_spec.Linz.check} — the retired
      calls must admit a sequential order through the abstract spec
      explaining every observed result and the final abstract state.

    Violations shrink greedily ({!Komodo_spec.Diff.shrink_seq}) to a
    1-minimal flattened op list and serialise to JSONL replay traces,
    exactly like {!Drive}'s. With [~faults:true] the trial also arms
    the fault injector with {!Inject.Lockstep}-point plans — insecure
    memory writes, interrupts, RNG glitches at lock boundaries — which
    the construction-call alphabet cannot observe, so fault campaigns
    must stay violation-free. *)

module Word = Komodo_machine.Word
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Smc = Komodo_core.Smc
module Os = Komodo_os.Os
module Smp = Komodo_os.Smp
module Abs = Komodo_spec.Abs
module Linz = Komodo_spec.Linz
module Diff = Komodo_spec.Diff
module Json = Komodo_telemetry.Json
module Tracefile = Komodo_telemetry.Tracefile
module Seedsplit = Komodo_rand.Seedsplit

type sop = { s_cpu : int; s_call : int; s_args : int list }

let pp_sop s =
  Printf.sprintf "cpu%d %s(%s)" s.s_cpu
    (Smc.call_name s.s_call)
    (String.concat "," (List.map string_of_int s.s_args))

type violation = {
  index : int;  (** last op index of the violating run (for shrinking) *)
  kind : string;  (** ["deadlock"] | ["invariant"] | ["linearisability"] *)
  reason : string;
}

let pp_violation v = Printf.sprintf "%s: %s" v.kind v.reason

(* -- World construction -------------------------------------------------- *)

(* Per-CPU prelude pages: cpu [c] owns addrspace page [3c], l1pt
   [3c+1], l2pt [3c+2]. The contended pool starts right after. *)
let asp_page c = 3 * c
let pool_base ~cpus = 3 * cpus
let pool_pages = 8

let prelude_ops ~cpus =
  let smc call args = Diff.Smc { call; args; budget = None } in
  List.concat
    (List.init cpus (fun c ->
         let a = asp_page c in
         [
           smc Smc.sm_init_addrspace [ a; a + 1 ];
           smc Smc.sm_init_l2ptable [ a; a + 2; 0 ];
         ]))

let min_pages ~cpus = pool_base ~cpus + pool_pages

let check_geometry ~npages ~cpus =
  if cpus < 1 then invalid_arg "Smpdrive: cpus must be >= 1";
  if npages < min_pages ~cpus then
    invalid_arg "Smpdrive: npages too small for the per-cpu preludes"

(* -- Fault plans at lock boundaries -------------------------------------- *)

let gen_faults ~seed ~n =
  let st = Seedsplit.stream ~root:(Seedsplit.derive ~root:seed 0x10CF) () in
  let rnd k = Seedsplit.next st mod k in
  List.init
    (2 + rnd 4)
    (fun _ ->
      let point = Inject.Lockstep (rnd (4 * (n + 1))) in
      let action =
        match rnd 4 with
        | 0 ->
            Inject.Mem_write
              {
                addr = Word.to_int Os.staging_base + (4 * rnd 1024);
                value = rnd 0x3FFF_FFFF;
              }
        | 1 ->
            Inject.Mem_write
              {
                addr = Word.to_int Os.shared_base + (4 * rnd 1024);
                value = rnd 0x3FFF_FFFF;
              }
        | 2 -> Inject.Irq
        | _ -> Inject.Rng_reseed (rnd 0x3FFF_FFFF)
      in
      { Inject.point; action })

(* -- Running a flattened op list ----------------------------------------- *)

let scripts_of_sops ~cpus sops =
  List.init cpus (fun c ->
      List.filter_map
        (fun s ->
          if s.s_cpu = c then
            Some { Smp.call = s.s_call; args = List.map Word.of_int s.s_args }
          else None)
        sops)

type stats = {
  calls : int;
  contended : int;
  uncontended : int;
  spins : int;
  retries : int;
  lock_cycles : int;
  injections : int;
  inconclusive : int;
}

let run_sops ?bug ?(faults = false) ~seed ~npages ~cpus sops =
  check_geometry ~npages ~cpus;
  (* The prelude runs in lockstep with the spec, and the spec's state
     after it is the linearisability check's initial state: [Abs.abs]
     renders unfinalised measurements as completed digests, which the
     spec cannot extend. *)
  let rs0 = Diff.start (Os.boot ~seed ~npages ()) in
  let rs =
    match Diff.run_from rs0 0 (prelude_ops ~cpus) with
    | Ok (rs, _) -> rs
    | Error d -> failwith ("Smpdrive: prelude diverged — " ^ Diff.pp_divergence d)
  in
  let init_abs = rs.Diff.spec and os = rs.Diff.os in
  let os, inj =
    if not faults then (os, None)
    else begin
      let inj = Inject.create ~plat:os.Os.mon.Monitor.plat () in
      Inject.arm inj (gen_faults ~seed ~n:(List.length sops));
      let mon =
        { os.Os.mon with Monitor.inject = Some (Inject.hook inj) }
      in
      ({ os with Os.mon }, Some inj)
    end
  in
  let outcome = Smp.run ~seed ?bug os ~scripts:(scripts_of_sops ~cpus sops) in
  let last = List.length sops - 1 in
  let fail kind reason = Error { index = last; kind; reason } in
  match outcome.Smp.deadlock with
  | Some dl ->
      let member w =
        Printf.sprintf "cpu%d holds {%s} wants %d" w.Smp.w_cpu
          (String.concat "," (List.map string_of_int w.Smp.w_holds))
          w.Smp.w_wants
      in
      fail "deadlock"
        (Printf.sprintf "wait-for cycle: %s"
           (String.concat " -> " (List.map member dl.Smp.dl_cycle)))
  | None -> (
      let mon = outcome.Smp.os.Os.mon in
      match
        Pagedb.check mon.Monitor.plat mon.Monitor.mach.Komodo_machine.State.mem
          mon.Monitor.pagedb
      with
      | pv :: _ ->
          fail "invariant"
            (Format.asprintf "final PageDB ill-formed: %a" Pagedb.pp_violation
               pv)
      | [] -> (
          match
            Linz.check ~init:init_abs ~final:(Abs.abs mon) outcome.Smp.events
          with
          | Linz.Violation { reason } -> fail "linearisability" reason
          | (Linz.Inconclusive _ | Linz.Linearisable _) as verdict ->
              let st = outcome.Smp.stats in
              Ok
                {
                  calls = st.Smp.total_calls;
                  contended = st.Smp.contended_acquisitions;
                  uncontended = st.Smp.uncontended_acquisitions;
                  spins = st.Smp.spin_iterations;
                  retries = st.Smp.retries;
                  lock_cycles = st.Smp.lock_cycles;
                  injections =
                    (match inj with
                    | Some inj -> Inject.fired_count inj
                    | None -> 0);
                  inconclusive =
                    (match verdict with Linz.Inconclusive _ -> 1 | _ -> 0);
                }))

(* -- Seeded op generation ------------------------------------------------ *)

(* Weighted construction-call templates over the shared pool. MapSecure
   dominates (the racing-allocation shape both seeded bugs need);
   content is always 0 so the spec replay is exact. *)
let gen_sops ~seed ~npages ~cpus ~ops_per_cpu =
  ignore npages;
  let pb = pool_base ~cpus in
  List.concat
    (List.init cpus (fun c ->
         let st =
           Seedsplit.stream ~root:(Seedsplit.derive ~root:seed (c + 1)) ()
         in
         let rnd k = Seedsplit.next st mod k in
         let pool () = pb + rnd pool_pages in
         let va () = ((1 + rnd 12) * 0x1000) lor 3 in
         List.init ops_per_cpu (fun _ ->
             let a = asp_page c in
             let call, args =
               match rnd 12 with
               | 0 | 1 | 2 | 3 | 4 ->
                   (Smc.sm_map_secure, [ a; pool (); va (); 0 ])
               | 5 | 6 -> (Smc.sm_remove, [ pool () ])
               | 7 -> (Smc.sm_init_thread, [ a; pool (); va () land lnot 3 ])
               | 8 -> (Smc.sm_alloc_spare, [ a; pool () ])
               | 9 -> (Smc.sm_get_phys_pages, [])
               | 10 -> (Smc.sm_map_insecure, [ a; rnd 4; va () ])
               | _ ->
                   (* racing Remove of another cpu's addrspace page *)
                   (Smc.sm_remove, [ asp_page (rnd cpus) ])
             in
             { s_cpu = c; s_call = call; s_args = args })))

(* -- Trials -------------------------------------------------------------- *)

(* A violating trial reports all-zero stats. *)
type trial = { t_stats : stats; t_violation : violation option }

let default_npages = 32
let default_cpus = 4
let default_ops = 8

let run_trial ?(npages = default_npages) ?(cpus = default_cpus)
    ?(ops_per_cpu = default_ops) ?bug ?(faults = false) ~seed () =
  let sops = gen_sops ~seed ~npages ~cpus ~ops_per_cpu in
  match run_sops ?bug ~faults ~seed ~npages ~cpus sops with
  | Ok s -> { t_stats = s; t_violation = None }
  | Error v ->
      let zero =
        {
          calls = 0;
          contended = 0;
          uncontended = 0;
          spins = 0;
          retries = 0;
          lock_cycles = 0;
          injections = 0;
          inconclusive = 0;
        }
      in
      { t_stats = zero; t_violation = Some v }

type outcome = {
  trials_run : int;
  total_calls : int;
  total_contended : int;
  total_uncontended : int;
  total_spins : int;
  total_retries : int;
  total_lock_cycles : int;
  total_injections : int;
  total_inconclusive : int;
  violation : (int * sop list * violation) option;
}

(* -- Replay traces (JSONL, like Drive's) --------------------------------- *)

type header = {
  h_seed : int;
  h_npages : int;
  h_cpus : int;
  h_bug : Smp.bug option;
}

let trace_lines ~seed ~npages ~cpus ~bug sops =
  let op s =
    Json.Obj
      [
        ("cpu", Json.Int s.s_cpu);
        ("call", Json.Int s.s_call);
        ("args", Tracefile.ints s.s_args);
      ]
  in
  Tracefile.lines (Tracefile.Kind "smp")
    [
      ("seed", Json.Int seed);
      ("npages", Json.Int npages);
      ("cpus", Json.Int cpus);
      ("bug", Tracefile.name_json Smp.bug_name bug);
    ]
    op sops

let trace_parse =
  let open Tracefile in
  parse (Kind "smp")
    ~op:(fun h j ->
      let* s_cpu = range_field "cpu" ~lo:0 ~hi:(h.h_cpus - 1) j in
      let* s_call = int_field "call" j in
      let* s_args = int_list "args" j in
      Ok { s_cpu; s_call; s_args })
    ~header:(fun h ->
      let* h_seed = int_field "seed" h in
      let* h_cpus = range_field "cpus" ~lo:1 ~hi:Platform.max_pages h in
      let* h_npages =
        range_field "npages" ~lo:(min_pages ~cpus:h_cpus) ~hi:Platform.max_pages h
      in
      let* h_bug = name_field "bug" Smp.bug_of_string h in
      Ok { h_seed; h_npages; h_cpus; h_bug })

let replay h sops =
  run_sops ?bug:h.h_bug ~seed:h.h_seed ~npages:h.h_npages ~cpus:h.h_cpus sops
