(* The replay-trace codecs, one round-trip property per format: the
   lines a trace serialises to parse back to the same ops, and
   corrupting any one line makes the parse fail naming that 1-based
   line. *)

open Testlib
module Diff = Komodo_spec.Diff
module Explore = Komodo_spec.Explore
module Drive = Komodo_fault.Drive
module Vaultdrive = Komodo_fault.Vaultdrive
module Smpdrive = Komodo_fault.Smpdrive

let roundtrip name ~ops ~lines ~parse =
  QCheck.Test.make ~count:40 ~name
    QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (seed, k) ->
      let ops = ops seed in
      let ls = lines ops in
      let k = k mod List.length ls in
      let corrupt = List.mapi (fun i l -> if i = k then "{\"op\":" else l) ls in
      (match parse ls with
      | Ok parsed -> parsed = ops
      | Error e -> QCheck.Test.fail_reportf "does not parse back: %s" e)
      &&
      match parse corrupt with
      | Ok _ -> QCheck.Test.fail_reportf "line %d corrupted, yet it parses" (k + 1)
      | Error e ->
          let prefix = Printf.sprintf "line %d: " (k + 1) in
          String.starts_with ~prefix e
          || QCheck.Test.fail_reportf "error %S does not start with %S" e prefix)

let fault_world = lazy (Diff.make_world ~npages:40 ~seed:5 ())

let prop_fault =
  roundtrip "fault trace round-trips; errors name the line"
    ~ops:(fun seed ->
      Drive.gen_fops (Lazy.force fault_world) ~faults:Drive.all_classes ~seed ~n:30)
    ~lines:(Drive.trace_lines ~seed:5 ~npages:40 ~bug:None)
    ~parse:(fun ls -> Result.map snd (Drive.trace_parse ls))

let prop_vault =
  roundtrip "vault trace round-trips; errors name the line"
    ~ops:(fun seed -> Vaultdrive.gen_sops ~classes:Vaultdrive.all_classes ~seed ~n:30)
    ~lines:(Vaultdrive.trace_lines ~seed:11 ~npages:48 ~bug:None)
    ~parse:(fun ls -> Result.map snd (Vaultdrive.trace_parse ls))

let prop_smp =
  let npages = Smpdrive.default_npages in
  roundtrip "smp trace round-trips; errors name the line"
    ~ops:(fun seed -> Smpdrive.gen_sops ~seed ~npages ~cpus:4 ~ops_per_cpu:8)
    ~lines:(Smpdrive.trace_lines ~seed:7 ~npages ~cpus:4 ~bug:None)
    ~parse:(fun ls -> Result.map snd (Smpdrive.trace_parse ls))

(* Explore paths draw on the alphabets of the first search levels, deep
   enough to include the forced-outcome branches of opaque enclave
   runs. *)
let explore_cfg = { Explore.pages = 7; depth = 3; seed = 42; mutate = None }

let explore_pool =
  lazy
    (let w = Explore.make_world explore_cfg in
     let rec level frontier d =
       if d = 0 then frontier
       else
         let sh =
           Explore.expand_range w ~visited:(fun _ -> false) ~frontier:(Array.of_list frontier)
             ~lo:0 ~hi:(List.length frontier)
         in
         frontier @ level (List.map (fun (_, n, _, _) -> n) sh.Explore.sh_new) (d - 1)
     in
     Array.of_list (List.concat_map (Explore.alphabet w) (level [ Explore.root w ] 3)))

let explore_path seed =
  let pool = Lazy.force explore_pool in
  let rng = Random.State.make [| seed |] in
  List.init (1 + Random.State.int rng 20) (fun _ ->
      pool.(Random.State.int rng (Array.length pool)))

let prop_explore =
  roundtrip "explore trace round-trips; errors name the line" ~ops:explore_path
    ~lines:(fun ops ->
      Explore.trace_lines explore_cfg
        { Explore.v_prelude = false; v_depth = 1; v_reason = "round trip"; v_ops = ops })
    ~parse:(fun ls -> Result.map snd (Explore.trace_parse ls))

let test_explore_pool_forces () =
  Alcotest.(check bool)
    "the explore alphabet pool has forced-outcome ops" true
    (Array.exists (fun x -> x.Explore.forced <> None) (Lazy.force explore_pool))

let suite =
  [
    qcheck prop_fault;
    qcheck prop_vault;
    qcheck prop_smp;
    Alcotest.test_case "explore pool covers forced outcomes" `Quick test_explore_pool_forces;
    qcheck prop_explore;
  ]
