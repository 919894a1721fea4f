(** In-memory spans and counters for the traced run.

    A span records its name, start and end on the monotonic clock, the
    span that caused it (its parent), a request id shared by every span
    of one request, and the words allocated while it was open.  Spans
    are kept in memory and written out once, when the run ends.

    Tracing is off by default: [with_span] and [count] then cost one
    branch, so the traced and untraced passes of a replay run the same
    code.  Not domain-safe — the traced replays run at jobs=1. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** [-1] outside any request *)
  start_ns : int;
  stop_ns : int;
  alloc_w : float;  (** minor + major words allocated, promotions counted once *)
}

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drops every recorded span and counter. *)

val with_span : ?req:int -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span.  [req] starts a request; nested spans
    inherit their parent's request id. *)

val count : string -> int -> unit
(** Adds to a named counter (no-op when tracing is off). *)

val spans : unit -> span list
(** In start order. *)

val counter : string -> int
(** 0 for a counter never touched. *)

val alloc_words : unit -> float
(** Words allocated so far by this domain ([Gc.counters]: minor +
    major - promoted). *)

(** {2 Self time} *)

val self_ns : span list -> (int, int) Hashtbl.t
(** Span id -> duration minus the part of its interval covered by its
    children (overlapping children are merged, so coverage is never
    counted twice). *)

type layer = {
  calls : int;
  total_s : float;
  self_s : float;
  alloc_w : float;
  self_alloc_w : float;  (** own allocation minus that of children *)
}

val by_name : span list -> (string * layer) list
(** Sums per span name, sorted by name. *)

val write_jsonl : string -> span list -> unit
(** One JSON object per line. *)
