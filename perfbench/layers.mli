(** The traced run's in-process replays.  Each runs in a fresh child
    process (so caches start cold on both sides of a comparison) at
    jobs=1, calling the library's public functions, with spans from
    this file around each call into a layer. *)

type result = {
  wall_s : float;  (** the replay's timed work, tracing on or off *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  digests : string list;  (** per-enumeration Δ' digests, in order *)
}

val to_json : result -> Jsonl.t
val of_json : Jsonl.t -> result

val closure_reference : Instances.group list -> result
(** [Closure.delta ~memo:false] over every (group, σ); metrics
    [closure.delta_s] and [closure.enumerations]. *)

val closure_replay : Instances.group list -> result
(** Definition 2 re-enacted from the public layer functions — candidate
    sets and zero-round Δ, [Local_task.make], [Solvability.decide] with
    the protocol and local-Δ callbacks — under spans when tracing is
    on.  Run once traced and once untraced, in separate processes, for
    [trace.overhead_frac]. *)

val closure_certs : Instances.group list -> Cert.t list
(** The enumeration certificates of the store-ready groups (persistent
    operator, registry task), for the cert pass: the same enumeration,
    run apart from the timed replays so that they keep no witnesses. *)

val replay_metrics : unit -> (string * float) list
(** tasks.*, models.*, solver.* from the recorded spans and counters. *)

val cert_of_store : string -> scratch:string -> result
(** Load, decode and verify every entry of a store, then encode and
    save each into [scratch]. *)

val cert_of_certs : Cert.t list -> scratch:string -> result
(** Encode and save the certificates into [scratch], then load, decode
    and verify them back. *)

val wire_replay : Draw.request array -> golden:(string, string) Hashtbl.t -> result
(** Each request line through [Wire.decode_request], [Wire.compute]
    and [Wire.ok_reply]; every reply is checked against the golden
    digest of its request. *)
