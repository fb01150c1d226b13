(* Deterministic reduction of per-trial results into one campaign
   report.

   The contract that makes `-j N` byte-identical to `-j 1`: the report
   is a function of the trial results for indices 0..k only, where k is
   the lowest failing index (or trials-1 on a clean campaign) — exactly
   the set a sequential run would have produced — and every merge used
   here is order-insensitive (coverage and metrics counters are sums,
   cycle histograms are multisets, blackout is a max). The failing
   trial is reported by index, never by finish order, and its shrunk
   trace is recomputed deterministically from its seed.

   Each seed-per-trial kind's report is its trials folded through the
   kind's one merge ({!Driver.Make}'s [report] over a {!Kinds} driver);
   the explorer's level merge lives here. *)

module Cover = Komodo_spec.Cover
module Diff = Komodo_spec.Diff
module Explore = Komodo_spec.Explore
module Drive = Komodo_fault.Drive

let check = let module C = Driver.Make (Kinds.Check) in C.report
let fault = let module F = Driver.Make (Kinds.Fault) in F.report

(* -- exhaustive-exploration (explore) levels ----------------------------- *)

type explore_level = {
  el_edges : int;
  el_new : (string * Explore.snode * int * Explore.xop) list;
  el_cover : Cover.t;
  el_violation : (int * Explore.xop * string) option;
}

let explore (shards : Explore.shard list) : explore_level =
  (* Shards arrive in slice order (the pool's Stopped prefix plus the
     lowest failing shard). Cross-shard key collisions are resolved
     first-writer-wins in that order, so the merged level — and hence
     the whole search — is independent of how many domains ran it. *)
  let seen = Hashtbl.create 256 in
  let news = ref [] in
  let edges = ref 0 in
  let cover = Cover.create () in
  let violation = ref None in
  List.iter
    (fun (sh : Explore.shard) ->
      edges := !edges + sh.Explore.sh_edges;
      Cover.merge_into cover sh.Explore.sh_cover;
      List.iter
        (fun ((key, _, _, _) as entry) ->
          if not (Hashtbl.mem seen key) then (
            Hashtbl.add seen key ();
            news := entry :: !news))
        sh.Explore.sh_new;
      if !violation = None then violation := sh.Explore.sh_violation)
    shards;
  {
    el_edges = !edges;
    el_new = List.rev !news;
    el_cover = cover;
    el_violation = !violation;
  }
