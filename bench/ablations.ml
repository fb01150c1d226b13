(** Ablation benches for the design choices DESIGN.md calls out. *)

module Word = Komodo_machine.Word
module Cost = Komodo_machine.Cost
module Os = Komodo_os.Os
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping

(** Measurement granularity: the monitor hashes each page at MapSecure
    time, so Finalise is O(1) in enclave size. Measure Finalise's cycle
    cost for growing enclaves and compare with the deferred-batch
    alternative (hash everything at Finalise), whose cost we compute
    from the same SHA model. *)
let finalise_o1 () =
  Report.print_header
    "Ablation: measurement at MapSecure vs deferred batch hash at Finalise";
  let finalise_cost npages =
    (* Build by hand up to Finalise, so the call is timed in isolation. *)
    let os = Os.boot ~seed:0xF17A ~npages:64 () in
    let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
    assert (Errors.is_success err);
    let os, err = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
    assert (Errors.is_success err);
    let os =
      List.fold_left
        (fun os i ->
          let os, err =
            Os.map_secure os ~addrspace:0 ~data:(3 + i)
              ~mapping:(Mapping.make ~va:(Word.of_int ((i + 1) * 0x1000)) ~w:true ~x:false)
              ~content:Word.zero
          in
          assert (Errors.is_success err);
          os)
        os
        (List.init npages (fun i -> i))
    in
    let c0 = Os.cycles os in
    let os, err = Os.finalise os ~addrspace:0 in
    assert (Errors.is_success err);
    Os.cycles os - c0
  in
  let deferred npages =
    (* One header block + 64 content blocks per page, plus final pad. *)
    (npages * 65 * Cost.sha256_block) + Cost.sha256_block
  in
  Report.print_table ~json_name:"finalise_ablation"
    ~columns:[ "Data pages"; "Finalise (as built)"; "Finalise (deferred hash)" ]
    (List.map
       (fun n ->
         [ string_of_int n; string_of_int (finalise_cost n); string_of_int (deferred n) ])
       [ 1; 2; 4; 8 ]);
  print_endline
    "\n(as built, Finalise is O(1): the hash was paid incrementally at each\n\
    \ MapSecure, which also lets the OS overlap construction with other work)"

(** Multi-core contention sweep: N cores repeatedly building the same
    minimal enclave, either on disjoint page sets (no lock overlap —
    every acquisition uncontended) or all on one shared set (maximal
    overlap — the losers spin). The fine-grained per-page locks keep
    the disjoint sweep's lock cost flat per call while the shared sweep
    shows contention as spin cycles, all under the deterministic cycle
    model (seeded scheduler, so every figure is reproducible). *)
let smp_lock () =
  Report.print_header "Extension: multi-core monitor, fine-grained page locks";
  let module Smp = Komodo_os.Smp in
  let reps = 10 in
  let sweep ~ncores ~disjoint =
    let os = Os.boot ~seed:0x10C4 ~npages:64 () in
    let scripts =
      List.init ncores (fun c ->
          let base = if disjoint then 5 * c else 0 in
          List.concat
            (List.init reps (fun _ ->
                 Smp.build_script
                   ~pages:(base, base + 1, base + 2, base + 3, base + 4))))
    in
    Smp.run ~seed:5 os ~scripts
  in
  let rows =
    List.map
      (fun ncores ->
        let d = (sweep ~ncores ~disjoint:true).Smp.stats in
        let s = sweep ~ncores ~disjoint:false in
        let st = s.Smp.stats in
        [
          string_of_int ncores;
          string_of_int st.Smp.total_calls;
          string_of_int d.Smp.lock_cycles;
          string_of_int st.Smp.lock_cycles;
          string_of_int st.Smp.contended_acquisitions;
          string_of_int st.Smp.uncontended_acquisitions;
          string_of_int st.Smp.spin_iterations;
        ])
      [ 1; 2; 4 ]
  in
  Report.print_table ~json_name:"smp_lock"
    ~columns:
      [
        "Cores";
        "Calls";
        "Disjoint lock cyc";
        "Shared lock cyc";
        "Contended";
        "Uncontended";
        "Spins";
      ]
    rows;
  print_endline
    "\n(disjoint enclaves: per-page locks never overlap, so lock cost is a\n\
    \ flat 40 cycles per acquisition at any core count; one shared enclave\n\
    \ is the worst case — every call locks the same pages and the losers'\n\
    \ spin cycles grow with the core count)"

let run () =
  Microbench.run_ablation ();
  finalise_o1 ();
  smp_lock ()
