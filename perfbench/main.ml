(* The Komodo benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe golden --seeds A-B      print expected digests for seeds A..B
     main.exe selftest                the benchmark's own checks

   It runs from the repository root and reads perfbench/expected.txt.

   A run prints a human-readable table and, as its last stdout line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end ones, measured untraced;
   with [--trace 1] they are the per-layer ones from a traced run, whose
   re-derived report must equal the untraced report. *)

open Work

let now = Host.now

(* Words allocated so far: exactly on one domain, and counting the pool's
   domains for fault_j2. *)
let words kind = if kind = Fault_j2 then Host.all_words () else Host.words ()

(* -- expected reports ---------------------------------------------------- *)

(* Lines "<workload> <seed> <md5 of the report>"; explore ignores the seed
   and is keyed "*". *)
let expected_path = "perfbench/expected.txt"

let load_expected path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ w; s; d ] when w <> "" && w.[0] <> '#' -> go (((w, s), d) :: acc)
          | _ -> go acc)
    in
    let r = go [] in
    close_in ic;
    r
  end

let seed_key kind seed = match kind with Explore -> "*" | _ -> string_of_int seed

type check = Golden_ok | Golden_mismatch | No_golden

let check_against expected kind ~seed digest =
  match List.assoc_opt (name kind, seed_key kind seed) expected with
  | Some d when d = digest -> Golden_ok
  | Some _ -> Golden_mismatch
  | None -> No_golden

(* -- output --------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let row name value unit note =
  Printf.printf "  %-28s %16s %-8s %s\n" name value unit note

(* -- the untraced run ----------------------------------------------------- *)

let setups_per_batch = 2
let min_batches = 3

(* Batch [b] of a run on [seed]. Batch 0 is the seed's own batch, the one
   the expected reports and the traced run cover; later batches run fresh
   inputs derived from the seed, so that a run averages over many
   distinct trials or sessions: about one trial in twenty costs thirty
   times the median one, and a run that repeated one batch would measure
   how many of those the seed happened to draw. explore ignores the seed, so
   its batches repeat. *)
let batch_seed ~seed b = if b = 0 then seed else Campaign.trial_seed ~root:seed b

type sample = {
  result : (Work.batch, string) result;
  wall : float;  (** host seconds *)
  scale : float;  (** reference_probe_s over the probe time around it *)
  alloc : float;  (** words *)
  setups : float list;  (** host seconds *)
}

let untraced kind size ~seed ~seconds ~expected =
  let start = now () in
  let deadline = start +. seconds in
  (* Stop once the next batch would end past the deadline. *)
  let rec loop b p_before acc =
    let last = match acc with s :: _ -> s.wall | [] -> 0. in
    if b >= min_batches && now () +. (last /. 2.) >= deadline then List.rev acc
    else begin
      let setups =
        List.init setups_per_batch (fun _ ->
            let t0 = now () in
            setup kind size ~seed;
            now () -. t0)
      in
      let w0 = words kind in
      let t0 = now () in
      let result =
        match batch kind size ~seed:(batch_seed ~seed b) with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let wall = now () -. t0 in
      let alloc = words kind -. w0 in
      let p_after = Host.probe () in
      let scale = Host.reference_probe_s /. ((p_before +. p_after) /. 2.) in
      loop (b + 1) p_after ({ result; wall; scale; alloc; setups } :: acc)
    end
  in
  let runs = loop 0 (Host.probe ()) [] in
  let elapsed = now () -. start in
  let first = match runs with { result = Ok r; _ } :: _ -> Some r | _ -> None in
  let first_digest = match first with Some r -> digest r.report | None -> "none" in
  let golden = check_against expected kind ~seed first_digest in
  let heap = Host.peak_heap_mb () in
  let attempted = ref 0 and failed = ref 0 in
  let units = ref 0. and wall = ref 0. and scaled = ref 0. and alloc = ref 0. in
  List.iter
    (fun s ->
      match s.result with
      | Error msg ->
          Printf.printf "  batch raised: %s\n" msg;
          attempted := !attempted + 1;
          failed := !failed + 1
      | Ok r ->
          let repeat_ok = kind <> Explore || digest r.report = first_digest in
          attempted := !attempted + r.units;
          failed := !failed + (if repeat_ok then r.failed else max 1 r.failed);
          units := !units +. float r.units;
          wall := !wall +. s.wall;
          scaled := !scaled +. (s.wall *. s.scale);
          alloc := !alloc +. s.alloc)
    runs;
  (* A report that differs from the expected one fails every unit. *)
  if golden = Golden_mismatch then failed := max !failed !attempted;
  let thr = !units /. !scaled and alloc = !alloc /. !units in
  let setup_s = Trace.quantile (List.concat_map (fun s -> List.map (( *. ) s.scale) s.setups) runs) 0.5 in
  let raw_setup_s = Trace.quantile (List.concat_map (fun s -> s.setups) runs) 0.5 in
  Printf.printf "komodo-bench %s seed=%d batches=%d %s/batch=%d elapsed=%.1fs\n" (name kind)
    seed (List.length runs) (unit_name kind)
    (match first with Some r -> r.units | None -> 0)
    elapsed;
  row "setup_s" (Printf.sprintf "%.6f" setup_s) "s"
    (Printf.sprintf "median of %d; %.6f s unscaled" (setups_per_batch * List.length runs) raw_setup_s);
  row (unit_name kind ^ "s_per_s") (Printf.sprintf "%.2f" thr) "1/s"
    (Printf.sprintf "%.0f %ss; %.2f/s unscaled, over %.2f s" !units (unit_name kind)
       (!units /. !wall) !wall);
  Option.iter
    (fun r -> List.iter (fun (n, c) -> row n (string_of_int c) "cycles" "batch 0, model time") r.cycles)
    first;
  row "alloc_words_per_unit" (Printf.sprintf "%.1f" alloc) "words" ("per " ^ unit_name kind);
  row "peak_heap_mb" (Printf.sprintf "%.1f" heap) "MB" "Gc top_heap_words";
  row "error_rate"
    (Printf.sprintf "%g" (float !failed /. float (max 1 !attempted)))
    "ratio" (Printf.sprintf "%d of %d" !failed !attempted);
  Printf.printf "  host speed scale per batch: %s\n"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.2f" s.scale) runs));
  Printf.printf "  output check: batch 0 %s, digest %s\n"
    (match golden with
    | Golden_ok -> "matches the expected report"
    | Golden_mismatch -> "DIFFERS from the expected report"
    | No_golden -> "has no expected report for this seed")
    first_digest;
  let correct = !failed = 0 && first <> None in
  print_result ~correct ~attempted:!attempted ~failed:!failed
    [
      ("setup_s", setup_s, "s");
      ("units_per_s", thr, "1/s");
      ("alloc_words_per_unit", alloc, "words");
      ("peak_heap_mb", heap, "MB");
    ]

(* -- the traced run ------------------------------------------------------- *)

let traced kind size ~seed ~expected =
  let reference, _, reference_s = Host.timed_scaled (fun () -> batch kind size ~seed) in
  let d = digest reference.report in
  let t = Trace.run kind size ~seed ~reference_s in
  let td = digest t.Trace.report in
  let golden = check_against expected kind ~seed d in
  let correct = reference.failed = 0 && td = d && golden <> Golden_mismatch in
  Printf.printf "komodo-bench %s seed=%d traced\n" (name kind) seed;
  List.iter
    (fun (n, v) -> row n (Printf.sprintf "%.6g" v) (Trace.unit_of n) "")
    t.Trace.metrics;
  Printf.printf "  untraced digest %s, traced digest %s%s\n" d td
    (if td = d then "" else " (MISMATCH)");
  print_result ~correct ~attempted:reference.units
    ~failed:(if correct then 0 else max 1 reference.failed)
    (List.map (fun (n, v) -> (n, v, Trace.unit_of n)) t.Trace.metrics)

(* -- self-tests ----------------------------------------------------------- *)

let selftest () =
  let fails = ref 0 in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then incr fails
  in
  (* A tiny run of every workload, untraced and traced. *)
  List.iter
    (fun kind ->
      let b = batch kind tiny ~seed:1 in
      expect (name kind ^ ": tiny batch has no failures") (b.failed = 0);
      let t = Trace.run kind tiny ~seed:1 ~reference_s:1. in
      expect (name kind ^ ": traced report equals untraced") (t.Trace.report = b.report);
      expect (name kind ^ ": every per-layer metric reported")
        (List.map fst t.Trace.metrics = Trace.metric_names))
    kinds;
  (* Allocation, model cycles and explore counts repeat exactly at -j 1
     (after one warm-up, which pays for lazily built tables). *)
  let measured kind =
    let w0 = words kind in
    let b = batch kind tiny ~seed:3 in
    (words kind -. w0, b)
  in
  List.iter
    (fun kind ->
      ignore (measured kind);
      let a1, b1 = measured kind in
      let a2, b2 = measured kind in
      expect (name kind ^ ": allocated words identical across two runs") (a1 = a2);
      expect (name kind ^ ": report identical across two runs") (b1.report = b2.report);
      expect (name kind ^ ": model cycles identical across two runs") (b1.cycles = b2.cycles))
    [ Refine; Serve; Explore ];
  (* fault_j2's report is the -j 1 report. *)
  let j1 = fault_batch ~jobs:1 tiny ~seed:5 and j2 = fault_batch tiny ~seed:5 in
  expect "fault_j2: -j 2 report equals -j 1 report" (j1.report = j2.report);
  if !fails > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !fails;
    exit 1
  end

(* -- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload refine|fault_j2|serve|explore --seed N --seconds S \
     --trace 0|1\n\
    \       main.exe golden --seeds A-B\n\
    \       main.exe selftest";
  exit 2

let golden seeds =
  let lo, hi =
    match String.split_on_char '-' seeds with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> (a, b)
        | _ -> usage ())
    | _ -> usage ()
  in
  Printf.printf "explore * %s\n%!" (digest (batch Explore full ~seed:0).report);
  for seed = lo to hi do
    List.iter
      (fun kind ->
        if kind <> Explore then
          Printf.printf "%s %d %s\n%!" (name kind) seed
            (digest (batch kind full ~seed).report))
      kinds
  done

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> selftest ()
  | [ "golden"; "--seeds"; s ] -> golden s
  | args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let kind = match of_name (get "workload") with Some k -> k | None -> usage () in
      let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
      let expected = load_expected expected_path in
      if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
      Printf.printf "host: ocaml %s, Domain.recommended_domain_count %d\n" Sys.ocaml_version
        (Domain.recommended_domain_count ());
      if trace = 1 then traced kind full ~seed ~expected
      else untraced kind full ~seed ~seconds:(float seconds) ~expected
