(** Table 2 analogue: line counts per component of this repository.

    The paper's Table 2 breaks Komodo into components and reports
    specification, implementation and proof lines. The analogous
    breakdown here is source lines per subsystem, with the security
    harness standing where the noninterference proofs stood. The rows
    cover every source directory, so Total is the size of the tree. *)

let components =
  [
    ("ARM machine model", [ "lib/machine" ]);
    ("TrustZone platform/boot", [ "lib/tz" ]);
    ("SHA-256, HMAC, bignum, RSA", [ "lib/crypto" ]);
    ("Komodo monitor (PageDB/SMC/SVC)", [ "lib/core" ]);
    ("Enclave userland + notary", [ "lib/user" ]);
    ("Untrusted OS + loader", [ "lib/os" ]);
    ("SGX baseline", [ "lib/sgx" ]);
    ("Abstract spec + refinement checkers", [ "lib/spec" ]);
    ("Security harness (noninterference)", [ "lib/sec" ]);
    ("Fault, vault and SMP drivers", [ "lib/fault" ]);
    ("Campaign engine", [ "lib/campaign" ]);
    ("Seed splitting", [ "lib/rand" ]);
    ("Attestation serving", [ "lib/serve" ]);
    ("Telemetry", [ "lib/telemetry" ]);
    ("Command-line driver", [ "bin" ]);
    ("Examples", [ "examples" ]);
    ("Benchmarks", [ "bench"; "perfbench" ]);
    ("Tests", [ "test" ]);
  ]

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let count_file path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let rec count_dir dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc e ->
          let path = Filename.concat dir e in
          if Sys.is_directory path then acc + count_dir path
          else if is_source e then acc + count_file path
          else acc)
        0 entries
  | exception Sys_error _ -> 0

(** Find the repository root (the directory containing dune-project)
    upward from the current directory. *)
let repo_root () =
  let rec search dir depth =
    if depth > 6 then None
    else if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else search (Filename.dirname dir) (depth + 1)
  in
  search (Sys.getcwd ()) 0

let run () =
  Report.print_header "Table 2 (analogue): source lines per component";
  match repo_root () with
  | None -> print_endline "  (repository root not found; skipping)"
  | Some root ->
      let rows =
        List.filter_map
          (fun (name, dirs) ->
            let n =
              List.fold_left
                (fun acc d ->
                  let path = Filename.concat root d in
                  if Sys.file_exists path then acc + count_dir path else acc)
                0 dirs
            in
            if n = 0 then None else Some (name, n))
          components
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 rows in
      Report.print_table ~json_name:"table2_linecount"
        ~columns:[ "Component"; "Lines" ]
        (List.map (fun (n, c) -> [ n; string_of_int c ]) rows
        @ [ [ "Total"; string_of_int total ] ]);
      Printf.printf
        "\n(paper: 4,446 spec + 2,710 impl + 18,655 proof lines; here the\n\
        \ executable model plays all three roles)\n"
