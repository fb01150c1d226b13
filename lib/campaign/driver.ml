(* One campaign driver signature and the engine that runs any driver.

   A seed-per-trial campaign kind (check, fault, vault, smp) supplies
   only what is its own: the trial, its shrinker, its reduction, its
   trace codec, its printers and its progress rendering. Everything the
   kinds share — the domain pool, the serial re-shrink of the lowest
   failing trial, the determinism guard, the progress hook — lives once,
   in [Make]. The command-line half (trace IO, summary printing, exit
   codes) is the matching functor in bin/. *)

module Seedsplit = Komodo_rand.Seedsplit

(** The lowest failing trial of a stopped campaign. *)
type ('trial, 'op, 'violation) failure = {
  index : int;  (** lowest failing trial index *)
  seed : int;  (** that trial's derived seed *)
  trial : 'trial;
  shrunk : 'op list * 'violation;  (** recomputed from [seed] on one domain *)
}

(** A kind's verdict lines. *)
type messages = {
  finding : string;  (** ["VIOLATION"] or ["DIVERGENCE"] *)
  steps : string;  (** what the steps of a shrunk trace are called *)
  clean : string;  (** a clean campaign, no self-test armed *)
  survived : string;  (** a clean campaign although a self-test was armed *)
  caught : string;  (** a finding with a self-test armed *)
}

module type DRIVER = sig
  val name : string
  (** The kind: subcommand, progress label, error-message tag. *)

  type config
  (** Everything a trial depends on besides its seed. *)

  type op
  type violation
  type trial
  type outcome

  val run_trial : config -> seed:int -> trial
  (** One trial, a pure function of the config and its seed. *)

  val violation : trial -> violation option

  val shrink : config -> seed:int -> (op list * violation) option
  (** Regenerate trial [seed] and shrink its finding to a 1-minimal
      trace with {!Komodo_spec.Diff.shrink_seq}; [None] if it does not
      fail when re-run. *)

  val reduce :
    prefix:trial array -> failure:(trial, op, violation) failure option -> outcome
  (** The report over trials [0..k] — [prefix] in index order plus the
      lowest failure, if any — built from order-insensitive merges only,
      so it is the sequential report at any [-j]. *)

  val found : outcome -> (int * op list * violation) option
  (** The reported finding: trial seed, shrunk trace, violation. *)

  (** {2 Traces} *)

  type trace

  val trace_lines : (config -> seed:int -> op list -> string list) option
  (** Serialise a shrunk trace (header line, one JSON object per op);
      [None] when the kind saves no traces. *)

  val trace_parse : string list -> (trace, string) result

  val replay : config -> trace -> (string list, string list) result
  (** Re-run a parsed trace: [Ok] report lines when clean, [Error]
      lines describing the reproduced finding. *)

  (** {2 Printing} *)

  val pp_op : op -> string
  val pp_violation : violation -> string

  val armed : config -> bool
  (** Is a self-test (a [--bug] or [--mutate]) armed, so that a finding
      is expected? *)

  val summary : config -> outcome -> string list
  (** The report lines printed before the verdict. *)

  val messages : messages

  val progress : unit -> Progress.t -> trial -> unit
  (** A fresh progress observer for one campaign: folds a finished
      trial into a reporter via {!Progress.record}. *)
end

let resolve_jobs = function Some j when j > 0 -> j | _ -> Pool.default_jobs ()

(* The report's trials 0..k: the stopped prefix plus the failing trial. *)
let trials ~prefix ~failure =
  Array.to_list prefix @ match failure with None -> [] | Some f -> [ f.trial ]

let trials_run ~prefix ~failure =
  match failure with None -> Array.length prefix | Some f -> f.index + 1

(* The outcome's finding ({!DRIVER.found}) from the lowest failure. *)
let found_of failure =
  Option.map (fun f -> (f.seed, fst f.shrunk, snd f.shrunk)) failure

let sum f ts = List.fold_left (fun a t -> a + f t) 0 ts

module Make (D : DRIVER) = struct
  (* Trials race through the pool; on failure the higher indices are
     cancelled and the lowest failing trial is re-shrunk from its seed
     here, on the calling domain — shrinking is a serial greedy loop
     and parallel workers would only race it. *)
  let run ?progress ?jobs (config : D.config) ~trials ~seed : D.outcome =
    let tseed i = Seedsplit.derive ~root:seed i in
    let on_trial =
      Option.map
        (fun p ->
          let observe = D.progress () in
          fun _ t -> observe p t)
        progress
    in
    let outcome =
      match
        Pool.run
          ~label:(fun i -> Printf.sprintf "%s trial %d (seed %d)" D.name i (tseed i))
          ?on_trial ~jobs:(resolve_jobs jobs) ~trials
          ~failed:(fun t -> D.violation t <> None)
          (fun i -> D.run_trial config ~seed:(tseed i))
      with
      | Pool.Completed prefix -> D.reduce ~prefix ~failure:None
      | Pool.Stopped { prefix; index; failure = trial } -> (
          let seed = tseed index in
          match D.shrink config ~seed with
          | Some shrunk ->
              D.reduce ~prefix ~failure:(Some { index; seed; trial; shrunk })
          | None ->
              failwith
                (Printf.sprintf
                   "campaign: %s trial %d (seed %d) failed in the pool but not \
                    when re-run for shrinking — the trial is not a pure \
                    function of its seed"
                   D.name index seed))
    in
    Option.iter Progress.finish progress;
    outcome
end
