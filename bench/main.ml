(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table3  -- run one section

   Sections: table1 table2 table3 figure5 ablations latency security
   refinement campaign explore vault throughput serve profile
   wallclock *)

let security () =
  Report.print_header "Security (Theorem 6.1 harness + attack library)";
  let lines, ok = Komodo_sec.Attacks.suite ~seeds:5 ~ops:80 in
  List.iter print_endline lines;
  if not ok then exit 1

let sections =
  [
    ("table1", Api_sweep.run);
    ("table2", Linecount.run);
    ("table3", Microbench.run);
    ("figure5", Fig5.run);
    ("ablations", Ablations.run);
    ("latency", Latency.run);
    ("security", security);
    ("refinement", Refinement.run);
    ("campaign", Campaign_bench.run);
    ("explore", Explore_bench.run);
    ("vault", Vault_bench.run);
    ("throughput", Throughput.run);
    ("serve", Serve_bench.run);
    ("profile", Profile_bench.run);
    ("wallclock", Wallclock.run);
  ]

(* Every name on the command line must be a section: a misspelt one is
   an error before anything runs, not a silently skipped section. *)
let () =
  let names = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section(s): %s\navailable: %s\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst sections));
      exit 2);
  let chosen =
    if names = [] then sections
    else List.filter (fun (name, _) -> List.mem name names) sections
  in
  print_endline "Komodo reproduction benchmarks (SOSP 2017)";
  print_endline "==========================================";
  List.iter (fun (_, run) -> run ()) chosen;
  print_endline "\nall benchmark sections completed"
