(** Interrupt-latency bound (paper §7.2).

    "Whenever possible, the monitor executes with interrupts disabled
    ... a reasonable tradeoff since all operations are bounded-time
    (the longest-running monitor call, MapSecure, initialises and
    hashes a single page of memory)."

    The worst-case interrupt blackout is therefore the longest monitor
    call. This bench measures every SMC's full occupancy on its success
    path (enclave execution excluded — interrupts are *enabled* while
    the enclave runs, so Enter/Resume report only their monitor-side
    cost), confirming MapSecure dominates and quoting the blackout in
    microseconds at 900 MHz. *)

module Word = Komodo_machine.Word
module Cost = Komodo_machine.Cost
module Os = Komodo_os.Os
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping
module Drive = Komodo_fault.Drive

let check e = assert (Errors.is_success e)

let measure () =
  let os = Os.boot ~seed:0x1A7E ~npages:64 () in
  let step name f (os, acc) =
    let d, os = Runner.cycles_of f os in
    (os, (name, d) :: acc)
  in
  let os, rows =
    (os, [])
    |> step "GetPhysPages" (fun os ->
           let os, e, _ = Os.get_phys_pages os in
           check e; os)
    |> step "InitAddrspace" (fun os ->
           let os, e = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
           check e; os)
    |> step "InitL2PTable" (fun os ->
           let os, e = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
           check e; os)
    |> step "MapSecure" (fun os ->
           let os = Os.write_bytes os Os.staging_base (String.make 4096 'm') in
           let os, e =
             Os.map_secure os ~addrspace:0 ~data:3
               ~mapping:(Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false)
               ~content:Os.staging_base
           in
           check e; os)
    |> step "MapInsecure" (fun os ->
           let os, e =
             Os.map_insecure os ~addrspace:0
               ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
               ~target:Os.shared_base
           in
           check e; os)
    |> step "InitThread" (fun os ->
           let os, e = Os.init_thread os ~addrspace:0 ~thread:4 ~entry:Word.zero in
           check e; os)
    |> step "Finalise" (fun os ->
           let os, e = Os.finalise os ~addrspace:0 in
           check e; os)
    |> step "AllocSpare" (fun os ->
           let os, e = Os.alloc_spare os ~addrspace:0 ~spare:5 in
           check e; os)
    |> step "Stop" (fun os ->
           let os, e = Os.stop os ~addrspace:0 in
           check e; os)
    |> step "Remove" (fun os ->
           let os, e = Os.remove os ~page:5 in
           check e; os)
  in
  ignore os;
  List.rev rows

(* The static table in [run] measures each call's occupancy on its
   clean success path. The fault campaign measures the same bound the
   hard way: assert the interrupt line at commit points while an
   adversarial op sequence (malformed-SMC storms, concurrent-core
   stores) runs, and record the widest window between the assertion and
   the OS regaining control. The empirical worst case must stay within
   the static bound — MapSecure's zero-fill + measurement extension —
   or the bounded-blackout argument of §7.2 is wrong. *)
let fault_storm static_worst =
  Report.print_header
    "Interrupt latency under fault storm (empirical blackout)";
  let o =
    Runner.campaign (module Komodo_campaign.Kinds.Fault)
      ~jobs:(Komodo_campaign.Campaign.default_jobs ())
      Runner.fault_config ~trials:25 ~seed:42
  in
  let blackout = o.Drive.blackout in
  Report.print_table ~json_name:"fault_latency"
    ~columns:[ "Metric"; "Value" ]
    [
      [ "trials"; string_of_int o.Drive.trials_run ];
      [ "ops stepped"; string_of_int o.Drive.total_fops ];
      [ "faults fired"; string_of_int o.Drive.total_injections ];
      [ "worst blackout (cycles)"; string_of_int blackout ];
      [
        "worst blackout (us @900MHz)";
        Printf.sprintf "%.2f" (Cost.cycles_to_ms blackout *. 1000.);
      ];
      [ "static bound (cycles)"; string_of_int static_worst ];
    ];
  Printf.printf
    "\nempirical blackout %d cycles <= static MapSecure bound %d cycles: %s\n"
    blackout static_worst
    (if blackout <= static_worst then "ok" else "EXCEEDED");
  assert (blackout <= static_worst)

let run () =
  Report.print_header
    "Interrupt-latency bound: monitor occupancy per call (paper 7.2)";
  let rows = measure () in
  let worst = List.fold_left (fun w (_, d) -> max w d) 0 rows in
  Report.print_table ~json_name:"interrupt_latency"
    ~columns:[ "Call"; "Cycles"; "us @900MHz"; "" ]
    (List.map
       (fun (name, d) ->
         [
           name;
           string_of_int d;
           Printf.sprintf "%.2f" (Cost.cycles_to_ms d *. 1000.);
           (if d = worst then "<- worst case" else "");
         ])
       rows);
  let name, _ = List.find (fun (_, d) -> d = worst) rows in
  Printf.printf
    "\nworst-case interrupt blackout: %s at %d cycles (%.2f us) —\n\
     the paper's bounded-time argument: every call is O(1) or O(page),\n\
     so interrupts are never deferred longer than one page initialise+hash\n"
    name worst
    (Cost.cycles_to_ms worst *. 1000.);
  assert (name = "MapSecure");
  fault_storm worst
