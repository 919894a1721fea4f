(** The closed-loop load: [clients] connections from one process, each
    sending its next request only when the previous reply has arrived,
    all drawing from one shared request sequence.  Latency runs from
    just before the request is written to just after its reply line is
    complete, on the monotonic clock. *)

type outcome = {
  latency_ms : float array;  (** per request, in sequence order *)
  done_s : float array;  (** per request, reply time since the first send *)
  wall_s : float;  (** first send to last reply *)
  failed : int;
      (** error replies, replies whose id does not match, and replies
          differing from the first reply to the same request *)
  first_body : (string, string) Hashtbl.t;
      (** request key -> first reply with its id stripped *)
}

val body_of_reply : id:int -> string -> string option
(** The reply line minus its leading [{"id": ID, ], or [None] when the
    reply does not carry that id. *)

val run : sock:string -> clients:int -> Draw.request array -> outcome
(** @raise Failure on a transport error or a 60 s stall. *)
