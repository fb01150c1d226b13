(* One campaign driver signature and the engine that runs any driver.

   A seed-per-trial campaign kind (check, fault, vault, smp) supplies
   only what is its own: the trial, its shrinker, its one merge of
   trials, its trace codec, its printers and its progress rendering.
   Everything the kinds share — the domain pool, the serial re-shrink
   of the lowest failing trial, the determinism guard, the report fold
   and the progress fold — lives once, in [Make]. The command-line half
   (trace IO, summary printing, exit codes) is the matching functor in
   bin/. *)

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

  val check_config : config -> (unit, string) result
  (** [Error] names the bound (the one the kind's trace header
      enforces) of a config no trial can run in. *)

  (** {2 The one merge}

      A kind's totals are its trials merged: the report ({!Make.report})
      and the progress observer both fold through [merge], the only
      place the kind adds up its counters. *)

  val zero : unit -> trial
  (** The merge identity; fresh, since [merge] may update it in place. *)

  val merge : trial -> trial -> trial
  (** [merge acc t] adds [t] into [acc] (in place where [acc] is
      mutable; [t] is left alone). Order-insensitive on every field but
      spans, which concatenate. The merge carries no finding. *)

  val outcome :
    trial -> trials_run:int -> found:(int * op list * violation) option -> outcome

  val ops : trial -> int
  (** The merged op count progress shows. *)

  val render : trial Progress.render

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
end

let resolve_jobs = function Some j when j > 0 -> j | _ -> Pool.default_jobs ()

module Make (D : DRIVER) = struct
  (* Trials 0..k merged in index order: the stopped prefix plus the
     failing trial, if any — the sequential report at any [-j]. *)
  let report ~prefix ~(failure : (D.trial, D.op, D.violation) failure option) =
    let merged = Array.fold_left D.merge (D.zero ()) prefix in
    match failure with
    | None -> D.outcome merged ~trials_run:(Array.length prefix) ~found:None
    | Some f ->
        let ops, v = f.shrunk in
        D.outcome (D.merge merged f.trial) ~trials_run:(f.index + 1)
          ~found:(Some (f.seed, ops, v))

  (* Each finished trial, in whatever order the pool lands them, into
     one running merge. *)
  let observe p =
    Progress.observer p ~ops:D.ops
      ~failed:(fun t -> D.violation t <> None)
      ~init:(D.zero ()) ~merge:D.merge D.render

  (* Trials race through the pool; on failure the higher indices are
     cancelled and the lowest failing trial is re-shrunk from its seed
     here, on the calling domain — shrinking is a serial greedy loop
     and parallel workers would only race it. *)
  let run ?progress ?jobs (config : D.config) ~trials ~seed : D.outcome =
    Result.iter_error (fun m -> invalid_arg (D.name ^ ": " ^ m)) (D.check_config config);
    let tseed i = Seedsplit.derive ~root:seed i in
    let on_trial =
      Option.map
        (fun p ->
          let observe = observe p in
          fun _ -> observe)
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
      | Pool.Completed prefix -> report ~prefix ~failure:None
      | Pool.Stopped { prefix; index; failure = trial } -> (
          let seed = tseed index in
          match D.shrink config ~seed with
          | Some shrunk ->
              report ~prefix ~failure:(Some { index; seed; trial; shrunk })
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
