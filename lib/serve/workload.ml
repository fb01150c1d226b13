(* Deterministic client workload generation for the serving subsystem.

   Every random choice the serving engine makes — inter-arrival gaps,
   think times, session nonces — is drawn from a splitmix64 stream
   derived from the shard seed, so a shard is a pure function of
   (root seed, shard index) and `-j 1` / `-j N` campaigns replay the
   exact same traffic. Time is *model cycles* throughout: arrival
   processes are defined over the monitor's deterministic cycle
   accounting, never wallclock. *)

module Word = Komodo_machine.Word
module Seedsplit = Komodo_rand.Seedsplit

(* -- PRNG ---------------------------------------------------------------- *)

(* A sequential splitmix64 reader (the same finalizer the campaign
   seed derivation is frozen on), kept local so the workload stream and
   the campaign's trial-seed stream cannot alias. *)
type rng = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let rng ~seed = { state = Seedsplit.mix64 (Int64.of_int seed) }

let next_int64 r =
  r.state <- Int64.add r.state golden_gamma;
  Seedsplit.mix64 r.state

(* Uniform in [0, 1): the top 53 bits of the draw, so the float is
   exact and platform-independent. *)
let uniform r =
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 r) 11) in
  bits /. 9007199254740992.0 (* 2^53 *)

let int_below r n =
  if n <= 0 then invalid_arg "Workload.int_below";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 r) 1) (Int64.of_int n))

let word r = Word.of_int (Int64.to_int (Int64.logand (next_int64 r) 0xFFFFFFFFL))

(** A fresh 32-byte session nonce (8 words, big-endian). *)
let nonce r =
  String.concat "" (List.map Word.to_bytes_be (List.init 8 (fun _ -> word r)))

(* -- Arrival processes --------------------------------------------------- *)

type arrival = Poisson | Uniform | Burst

let arrival_name = function
  | Poisson -> "poisson"
  | Uniform -> "uniform"
  | Burst -> "burst"

type mode =
  | Open of arrival  (** open loop: arrivals ignore completions *)
  | Closed of { clients : int; think : int }
      (** closed loop: each client reissues [think] mean cycles after
          its previous session completes *)

(* Exponential with the given mean, clamped to at least one cycle so
   model time always advances. [1 - u > 0] because [uniform < 1]. *)
let exponential r ~mean =
  let u = uniform r in
  max 1 (int_of_float (-.float_of_int mean *. log (1.0 -. u)))

(** An open-loop gap generator: successive calls return the model-cycle
    gap to the next arrival, with mean [mean_gap] in the long run.

    - [Poisson]: exponential gaps (memoryless arrivals).
    - [Uniform]: gaps uniform in [0.5, 1.5) x mean (gentle jitter).
    - [Burst]: bursts of 16 back-to-back arrivals (gap = mean/16) and
      long idle gaps between bursts, preserving the overall mean —
      the worst case for a bounded admission queue. *)
let gaps mode ~mean_gap r =
  let mean_gap = max 1 mean_gap in
  match mode with
  | Poisson -> fun () -> exponential r ~mean:mean_gap
  | Uniform ->
      fun () ->
        let u = uniform r in
        max 1 (int_of_float (float_of_int mean_gap *. (0.5 +. u)))
  | Burst ->
      let burst_len = 16 in
      let inner = max 1 (mean_gap / burst_len) in
      (* The idle gap tops the burst's mean back up to [mean_gap]:
         (burst_len-1) inner gaps + one idle gap = burst_len * mean. *)
      let idle_mean = (burst_len * mean_gap) - ((burst_len - 1) * inner) in
      let left = ref 0 in
      fun () ->
        if !left > 0 then begin
          decr left;
          inner
        end
        else begin
          left := burst_len - 1;
          exponential r ~mean:idle_mean
        end

(** A think-time draw for closed-loop clients: uniform in
    [0.5, 1.5) x mean, at least one cycle. *)
let think_gap r ~mean =
  let mean = max 1 mean in
  let u = uniform r in
  max 1 (int_of_float (float_of_int mean *. (0.5 +. u)))
