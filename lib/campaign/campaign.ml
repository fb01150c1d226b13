(* Domain-parallel campaign entry points.

   The seed-per-trial kinds (`komodo check`, `fault`, `vault`, `smp`)
   are {!Kinds} drivers run by the one engine in {!Driver.Make}:
   trials are independent worlds keyed only by a seed derived from
   (root_seed, trial_index), run on a Pool of domains, and reduced with
   sequential semantics. The exhaustive explorer keeps its own BFS
   level loop below — it is not a seed-per-trial campaign. *)

let default_jobs = Pool.default_jobs
let trial_seed ~root index = Komodo_rand.Seedsplit.derive ~root index

module Check = Driver.Make (Kinds.Check)
module Fault = Driver.Make (Kinds.Fault)
module Vault = Driver.Make (Kinds.Vault)
module Smp = Driver.Make (Kinds.Smp)

let check ?mutate ?(npages = 40) ?(ops_per_trial = 40) ?(metrics = false)
    ?(profile = false) ?clock ?progress ?jobs ~trials ~seed () =
  Check.run ?progress ?jobs
    { Kinds.Check.mutate; npages; ops = ops_per_trial; metrics; profile; clock }
    ~trials ~seed

let fault ?(npages = 40) ?(ops_per_trial = 40) ?(profile = false) ?clock
    ?progress ?bug ?jobs ~faults ~trials ~seed () =
  Fault.run ?progress ?jobs
    { Kinds.Fault.npages; ops = ops_per_trial; faults; bug; profile; clock }
    ~trials ~seed

let vault ?(npages = 48) ?(ops_per_trial = 24) ?progress ?bug ?jobs ~classes
    ~trials ~seed () =
  Vault.run ?progress ?jobs
    { Kinds.Vault.npages; ops = ops_per_trial; classes; bug }
    ~trials ~seed

let smp ?(npages = Kinds.Smpdrive.default_npages)
    ?(cpus = Kinds.Smpdrive.default_cpus) ?(ops_per_cpu = Kinds.Smpdrive.default_ops)
    ?progress ?bug ?(faults = false) ?jobs ~trials ~seed () =
  Smp.run ?progress ?jobs
    { Kinds.Smp.npages; cpus; ops = ops_per_cpu; bug; faults }
    ~trials ~seed

(* -- exhaustive exploration (komodo explore) ----------------------------- *)

module Explore = Komodo_spec.Explore
module Cover = Komodo_spec.Cover

(* Frontier slice size per pool shard. Small enough that violation
   localisation stays tight, large enough that shard overhead is noise
   against ~1k checked edges per node. *)
let explore_chunk = 64

(* The explorer's progress: depth versus the bound, distinct states,
   edges checked. A level already carries the running totals, so the
   merge keeps the latest. *)
let explore_progress p =
  let fields _ (depth, states, edges) =
    let totals = [ ("depth", depth); ("states", states); ("edges", edges) ] in
    [ ("explore", Progress.counts_json totals) ]
  in
  let line (v : Progress.view) (depth, states, edges) =
    Printf.sprintf "depth %d/%d, %d states, %d edges checked, %d violations" depth v.total
      states edges v.failures
  in
  let merge _ (totals, _) = totals in
  let observe = Progress.observer p ~failed:snd ~init:(0, 0, 0) ~merge { fields; line } in
  fun ~depth ~states ~edges ~violation -> observe ((depth, states, edges), violation)

let explore ?progress ?jobs ~(config : Explore.config) () : Explore.report =
  let jobs = Driver.resolve_jobs jobs in
  let observe = Option.map explore_progress progress in
  let w = Explore.make_world config in
  let cover = Cover.create () in
  Cover.merge_into cover (Explore.prelude_cover w);
  let root = Explore.root w in
  let root_key = Explore.node_key root in
  (* visited: key -> unit, written only between levels; parents: key ->
     (parent key, op) for shortest-path reconstruction. BFS discovery
     order guarantees the recorded parent chain is a shortest path. *)
  let visited = Hashtbl.create 4096 in
  let parents = Hashtbl.create 4096 in
  Hashtbl.add visited root_key ();
  let path_to key =
    let rec go key acc =
      match Hashtbl.find_opt parents key with
      | None -> acc
      | Some (pk, x) -> go pk (x :: acc)
    in
    go key []
  in
  let edges = ref (Explore.prelude_edges w) in
  let levels = ref [] in
  let violation = ref (Explore.prelude_violation w) in
  let frontier = ref [| root |] in
  let depth = ref 0 in
  while !violation = None && !depth < config.depth && Array.length !frontier > 0 do
    incr depth;
    let front = !frontier in
    let n = Array.length front in
    let nshards = (n + explore_chunk - 1) / explore_chunk in
    let run i =
      let lo = i * explore_chunk and hi = min n ((i + 1) * explore_chunk) in
      Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier:front ~lo
        ~hi
    in
    let shards =
      match
        Pool.run
          ~label:(fun i -> Printf.sprintf "explore level %d shard %d" !depth i)
          ~jobs ~trials:nshards
          ~failed:(fun sh -> sh.Explore.sh_violation <> None)
          run
      with
      | Pool.Completed arr -> Array.to_list arr
      | Pool.Stopped { prefix; failure; _ } ->
          Array.to_list prefix @ [ failure ]
    in
    let lvl = Agg.explore shards in
    edges := !edges + lvl.Agg.el_edges;
    Cover.merge_into cover lvl.Agg.el_cover;
    List.iter
      (fun (key, _, pi, x) ->
        Hashtbl.add visited key ();
        Hashtbl.add parents key (Explore.node_key front.(pi), x))
      lvl.Agg.el_new;
    levels := List.length lvl.Agg.el_new :: !levels;
    (match lvl.Agg.el_violation with
    | None -> ()
    | Some (pi, x, reason) ->
        let pkey = Explore.node_key front.(pi) in
        violation :=
          Some
            {
              Explore.v_prelude = false;
              v_depth = !depth;
              v_reason = reason;
              v_ops = Explore.prelude_xops w @ path_to pkey @ [ x ];
            });
    frontier :=
      Array.of_list (List.map (fun (_, nd, _, _) -> nd) lvl.Agg.el_new);
    Option.iter
      (fun observe ->
        observe ~depth:!depth ~states:(Hashtbl.length visited) ~edges:!edges
          ~violation:(lvl.Agg.el_violation <> None))
      observe
  done;
  Option.iter Progress.finish progress;
  {
    Explore.x_states = Hashtbl.length visited;
    x_edges = !edges;
    x_levels = List.rev !levels;
    x_cover = cover;
    x_violation = !violation;
  }
