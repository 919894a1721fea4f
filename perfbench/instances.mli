(** Closure instances for the replay: (operator, task, input simplices)
    groups, each a list of Definition-2 enumerations Δ'(σ).

    The tables workload's instances are those of the closure
    experiments e6 (Claim 2), e7 (Claim 3), e10 (Claim 4) and e11
    (Claim 6), rebuilt here from the experiments' own parameters.  The
    serve workloads' instances are the [closure] requests of their
    grid: the request's task and operator over every input simplex. *)

type group = {
  label : string;
  op : Round_op.t;
  task : Task.t;
  sigmas : Simplex.t list;  (** duplicates removed *)
}

val tables : unit -> group list

val tables_replay : unit -> group list
(** [tables] without the groups that would push a traced run past its
    time limit: e7 at m = 8 and n = 4, and the second eps of the
    full-input m = 4 shapes of e7 and e10. *)

val of_requests : Draw.request list -> group list
(** One group per [closure] request of the list (other methods are
    skipped), built the way the daemon builds it. *)
