let src = Logs.Src.create "speedup.closure" ~doc:"Closure computation"

module Log = (val Logs.src_log src : Logs.LOG)

(* Domain-safety & scaling: closure enumeration fans out across a
   domain pool (see lib/parallel), and a closure task's Δ' may itself
   be evaluated from pool workers (e.g. the solver's per-input pass),
   so the memo is built for concurrent access with a lock-free hot
   path.  The shared table is an immutable map published through an
   [Atomic.t] snapshot pointer: readers pay one atomic load and pure
   lookups, never a lock.  Writers stage entries in a per-domain
   (Domain.DLS) write-behind cache and publish in batches — once per
   pool chunk (via [Pool.register_flush]) inside a batch, immediately
   outside one — under [memo_lock], which therefore leaves the hot
   path entirely.  [reset_memo] bumps an epoch so per-domain caches
   from before the reset can neither serve nor resurrect entries. *)

module Key_map = Map.Make (struct
  type t = string * string

  let compare (a1, b1) (a2, b2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else String.compare b1 b2
end)

let memo : Complex.t Simplex.Map.t Key_map.t Atomic.t =
  Atomic.make Key_map.empty

(* Serializes publishers ([flush_local], [reset_memo]); readers never
   take it. *)
let memo_lock = Mutex.create ()
let memo_epoch = Atomic.make 0

(* ---- observability ---- *)

type memo_stats = { hits : int; misses : int; entries : int; enumerations : int }

(* Atomic so counts stay exact — not merely non-crashing — when bumped
   from concurrent domains.  Inside pool batches the hit/miss bumps
   are batched per domain and folded in at chunk boundaries, so the
   shared cache lines are touched once per chunk, not once per σ;
   [enumerations] stays a direct bump (it already sits on the slow
   path, and CI greps depend on it being exact mid-run). *)
let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0
let enumeration_count = Atomic.make 0

(* ---- the per-domain fast path ---- *)

type local = {
  mutable epoch : int;
  cache : (string * string, Complex.t Simplex.Tbl.t) Hashtbl.t;
      (* read-through copy of shared entries + own unpublished writes *)
  mutable pending : ((string * string) * Simplex.t * Complex.t) list;
  mutable pending_hits : int;
  mutable pending_misses : int;
}

let local_key =
  Domain.DLS.new_key (fun () ->
      {
        epoch = min_int;
        cache = Hashtbl.create 8;
        pending = [];
        pending_hits = 0;
        pending_misses = 0;
      })
[@@lint.allow
  "R1: deliberate per-domain read-through cache over the shared memo \
   snapshot; never shared across domains, and pending writes are \
   published at every chunk boundary (Pool.register_flush) or \
   immediately outside batches, so no entry outlives its batch \
   unpublished"]

let local () =
  let l = Domain.DLS.get local_key in
  let e = Atomic.get memo_epoch in
  if l.epoch <> e then begin
    Hashtbl.reset l.cache;
    l.pending <- [];
    l.pending_hits <- 0;
    l.pending_misses <- 0;
    l.epoch <- e
  end;
  l

(* Publish this domain's pending entries and counter deltas.  Cheap
   when there is nothing pending (one DLS read and two int checks) —
   it runs after every pool chunk.  The epoch is re-checked under
   [memo_lock] so entries staged before a concurrent [reset_memo] are
   dropped instead of resurrected. *)
let flush_local () =
  let l = Domain.DLS.get local_key in
  (match l.pending with
  | [] -> ()
  | pending ->
      Mutex.protect memo_lock (fun () ->
          if Atomic.get memo_epoch = l.epoch then
            Atomic.set memo
              (List.fold_left
                 (fun m (key, sigma, c) ->
                   let slot =
                     match Key_map.find_opt key m with
                     | Some s -> s
                     | None -> Simplex.Map.empty
                   in
                   Key_map.add key (Simplex.Map.add sigma c slot) m)
                 (Atomic.get memo) pending));
      l.pending <- []);
  if l.pending_hits <> 0 then begin
    ignore (Atomic.fetch_and_add memo_hits l.pending_hits);
    l.pending_hits <- 0
  end;
  if l.pending_misses <> 0 then begin
    ignore (Atomic.fetch_and_add memo_misses l.pending_misses);
    l.pending_misses <- 0
  end

let () = Pool.register_flush flush_local

let note_hit l =
  if Pool.in_parallel_region () then l.pending_hits <- l.pending_hits + 1
  else Atomic.incr memo_hits

let note_miss l =
  if Pool.in_parallel_region () then l.pending_misses <- l.pending_misses + 1
  else Atomic.incr memo_misses

let local_slot l key =
  match Hashtbl.find_opt l.cache key with
  | Some t -> t
  | None ->
      let t = Simplex.Tbl.create 16 in
      Hashtbl.add l.cache key t;
      t

(* Lock-free lookup: the per-domain cache first, then the shared
   snapshot (warming the per-domain cache on a hit there). *)
let memo_find l key sigma =
  let cached = Hashtbl.find_opt l.cache key in
  match cached with
  | Some t when Simplex.Tbl.mem t sigma -> Simplex.Tbl.find_opt t sigma
  | _ -> (
      match Key_map.find_opt key (Atomic.get memo) with
      | None -> None
      | Some slot -> (
          match Simplex.Map.find_opt sigma slot with
          | None -> None
          | Some c ->
              Simplex.Tbl.replace (local_slot l key) sigma c;
              Some c))

(* Stage an entry: visible to this domain immediately, published to
   the shared snapshot at the next chunk boundary (or right away when
   not inside a pool batch). *)
let memo_add l key sigma c =
  Simplex.Tbl.replace (local_slot l key) sigma c;
  l.pending <- (key, sigma, c) :: l.pending;
  if not (Pool.in_parallel_region ()) then flush_local ()

let memo_stats () =
  let entries =
    Key_map.fold
      (fun _ slot acc -> acc + Simplex.Map.cardinal slot)
      (Atomic.get memo) 0
  in
  {
    hits = Atomic.get memo_hits;
    misses = Atomic.get memo_misses;
    entries;
    enumerations = Atomic.get enumeration_count;
  }

let reset_memo () =
  Mutex.protect memo_lock (fun () ->
      Atomic.incr memo_epoch;
      Atomic.set memo Key_map.empty);
  Atomic.set memo_hits 0;
  Atomic.set memo_misses 0;
  Atomic.set enumeration_count 0

(* ---- the membership test (Definition 2) ---- *)

exception Undecided_local_task of { sigma : Simplex.t; tau : Simplex.t }

(* Raw membership with its witness map: the zero-round shortcut
   (simplices of Δ(σ) are always in Δ'(σ), Remark after Definition 2)
   needs no witness; a one-round membership carries the local-task
   decision map found by the solver. *)
let compute_member ?node_limit ?should_stop ~op task ~sigma ~tau =
  if Complex.mem tau (Task.delta task sigma) then (true, None)
  else
    match
      Solvability.local_task_solvable ?node_limit ?should_stop
        ~one_round:(Round_op.facets op) task ~sigma ~tau
    with
    | Solvability.Solvable f -> (true, Some f)
    | Solvability.Unsolvable -> (false, None)
    | Solvability.Undecided -> raise (Undecided_local_task { sigma; tau })

(* ---- certificate store plumbing ---- *)

(* The environment for re-validating a store entry against the live
   task and operator: names must match exactly what we are about to
   compute, so no registry lookup is involved. *)
let live_env ~op_name ~facets task =
  {
    Cert.task_of_name =
      (fun n -> if n = task.Task.name then Some task else None);
    facets_of_op = (fun n -> if n = op_name then Some facets else None);
    protocol_of_model = (fun _ -> None);
  }

(* Persist only when both names identify their semantics across
   sessions — otherwise the next session's read would just fail
   verification and quarantine the entry (e.g. randomly synthesized
   tasks, fresh-named β operators). *)
let store_ready op task =
  Cert_store.enabled ()
  && Round_op.persistent op
  && Cert_registry.known_task task.Task.name

(* Read-through: a store entry is only accepted after [Cert.verify]
   re-validates every witness; anything else is quarantined and
   recomputed. *)
let load_verified ~key ~env ~select =
  match Cert_store.load key with
  | None -> None
  | Some sexp -> (
      match Cert.decode sexp with
      | Error msg ->
          Log.warn (fun m -> m "stale/corrupt certificate %s: %s" key msg);
          Cert_store.quarantine key;
          None
      | Ok cert -> (
          match select cert with
          | None ->
              Cert_store.quarantine key;
              None
          | Some v -> (
              match Cert.verify env cert with
              | Ok () -> Some v
              | Error e ->
                  Log.warn (fun m ->
                      m "certificate %s failed verification: %s" key
                        (Cert.error_message e));
                  Cert_store.quarantine key;
                  None)))

let tau_member ?node_limit ~op task ~sigma ~tau =
  Complex.mem tau (Task.delta task sigma)
  ||
  let compute () = fst (compute_member ?node_limit ~op task ~sigma ~tau) in
  if not (store_ready op task) then compute ()
  else
    let op_name = Round_op.name op in
    let key =
      Cert.query_key
        (Cert.Q_member { op_name; task_name = task.Task.name; sigma; tau })
    in
    let env = live_env ~op_name ~facets:(Round_op.facets op) task in
    let select = function
      | Cert.Membership m
        when m.Cert.op_name = op_name
             && m.Cert.task_name = task.Task.name
             && Simplex.equal m.Cert.sigma sigma
             && Simplex.equal m.Cert.tau tau ->
          Some m.Cert.member
      | _ -> None
    in
    match load_verified ~key ~env ~select with
    | Some member -> member
    | None ->
        let member, witness = compute_member ?node_limit ~op task ~sigma ~tau in
        Cert_store.save ~key
          (Cert.encode
             (Cert.Membership
                {
                  op_name;
                  task_name = task.Task.name;
                  sigma;
                  tau;
                  member;
                  witness;
                }));
        member

let witness ?node_limit ~op task ~sigma ~tau =
  let compute () =
    match
      Solvability.local_task_solvable ?node_limit
        ~one_round:(Round_op.facets op) task ~sigma ~tau
    with
    | Solvability.Solvable f -> Some f
    | Solvability.Undecided -> None
    | Solvability.Unsolvable ->
        (* The search may be vacuously unsolvable only because τ was not
           a legal chromatic set; tau_member's zero-round shortcut case
           (τ ∈ Δ(σ)) is always solvable, so reaching here with a Δ(σ)
           member cannot happen: the CSP covers that map too. *)
        None
  in
  if not (store_ready op task) then compute ()
  else
    let op_name = Round_op.name op in
    let key =
      Cert.query_key
        (Cert.Q_member { op_name; task_name = task.Task.name; sigma; tau })
    in
    let env = live_env ~op_name ~facets:(Round_op.facets op) task in
    let select = function
      | Cert.Membership m
        when m.Cert.op_name = op_name
             && m.Cert.task_name = task.Task.name
             && Simplex.equal m.Cert.sigma sigma
             && Simplex.equal m.Cert.tau tau ->
          Some (m.Cert.member, m.Cert.witness)
      | _ -> None
    in
    match load_verified ~key ~env ~select with
    | Some (true, (Some _ as w)) -> w
    | Some (false, _) -> None
    | Some (true, None) | None ->
        (* No usable stored witness (zero-round entries have none):
           compute, and persist the result when it is decisive. *)
        let result = compute () in
        (match result with
        | Some f ->
            Cert_store.save ~key
              (Cert.encode
                 (Cert.Membership
                    {
                      op_name;
                      task_name = task.Task.name;
                      sigma;
                      tau;
                      member = true;
                      witness = Some f;
                    }))
        | None -> ());
        result

(* ---- Δ' enumeration ---- *)

(* Enumerate the candidate chromatic sets and keep the members, with
   witnesses (free: the membership search already produces the map).
   The zero-round shortcut (τ ∈ Δ(σ), a memoized set lookup) is
   sub-millisecond, so it is decided inline on the calling domain;
   only the real CSP searches — each an independent solver run — fan
   out across the domain pool.  The order-preserving merge keeps the
   member list — and hence Δ' — identical at every job count. *)
let enumerate ?node_limit ?should_stop ~op task sigma =
  Atomic.incr enumeration_count;
  let taus = Task.chromatic_output_sets task sigma in
  let zero = Task.delta task sigma in
  let tagged = List.map (fun tau -> (tau, Complex.mem tau zero)) taus in
  let hard =
    List.filter_map (fun (tau, z) -> if z then None else Some tau) tagged
  in
  let searched =
    Pool.map
      (fun tau -> compute_member ?node_limit ?should_stop ~op task ~sigma ~tau)
      hard
  in
  (* Reassemble in candidate order: zero-round members carry no
     witness (exactly what [compute_member] returns for them), CSP
     verdicts are consumed in order. *)
  let rec merge tagged searched =
    match tagged with
    | [] -> []
    | (tau, true) :: rest -> (tau, None) :: merge rest searched
    | (tau, false) :: rest -> (
        match searched with
        | (true, w) :: s -> (tau, w) :: merge rest s
        | (false, _) :: s -> merge rest s
        | [] -> assert false)
  in
  let members = merge tagged searched in
  Log.debug (fun m ->
      m "Δ'[%s](%a): %d of %d candidate sets admitted" (Round_op.name op)
        Simplex.pp sigma (List.length members) (List.length taus));
  members

let delta ?node_limit ?should_stop ?(memo = true) ~op task sigma =
  let op_name = Round_op.name op in
  let key = (op_name, task.Task.name) in
  let l = if memo then Some (local ()) else None in
  let cached =
    match l with None -> None | Some l -> memo_find l key sigma
  in
  match cached with
  | Some c ->
      (match l with Some l -> note_hit l | None -> ());
      c
  | None ->
      (match l with Some l -> note_miss l | None -> ());
      let memoize c =
        (match l with
        | Some l -> memo_add l key sigma c
        | None -> ());
        c
      in
      if not (store_ready op task) then
        memoize
          (Complex.of_facets
             (List.map fst (enumerate ?node_limit ?should_stop ~op task sigma)))
      else
        let store_key =
          Cert.query_key
            (Cert.Q_delta { op_name; task_name = task.Task.name; sigma })
        in
        let env = live_env ~op_name ~facets:(Round_op.facets op) task in
        let select = function
          | Cert.Enumeration e
            when e.Cert.op_name = op_name
                 && e.Cert.task_name = task.Task.name
                 && Simplex.equal e.Cert.sigma sigma ->
              Some (Complex.of_facets (List.map fst e.Cert.members))
          | _ -> None
        in
        match load_verified ~key:store_key ~env ~select with
        | Some c -> memoize c
        | None ->
            let members = enumerate ?node_limit ?should_stop ~op task sigma in
            Cert_store.save ~key:store_key
              (Cert.encode
                 (Cert.Enumeration
                    { op_name; task_name = task.Task.name; sigma; members }));
            memoize (Complex.of_facets (List.map fst members))

let delta_any ?node_limit ?(memo = true) ~ops ~name task sigma =
  (* Not persisted: membership here is a union over operators whose β
     functions are session-local, so no single stored witness would be
     re-checkable against the recorded operator name. *)
  let key = (name, task.Task.name) in
  let l = if memo then Some (local ()) else None in
  let cached =
    match l with None -> None | Some l -> memo_find l key sigma
  in
  match cached with
  | Some c ->
      (match l with Some l -> note_hit l | None -> ());
      c
  | None ->
      (match l with Some l -> note_miss l | None -> ());
      Atomic.incr enumeration_count;
      (* Membership under *some* operator is one independent search per
         candidate τ — the widest fan-out in the repo (|ops| solver
         calls per τ), so it runs on the pool.  As in [enumerate], the
         zero-round members (τ ∈ Δ(σ), member under every operator via
         the shortcut in [tau_member]) are decided inline and only the
         real searches cross a domain boundary. *)
      let taus = Task.chromatic_output_sets task sigma in
      let zero = Task.delta task sigma in
      let tagged = List.map (fun tau -> (tau, Complex.mem tau zero)) taus in
      let hard =
        List.filter_map (fun (tau, z) -> if z then None else Some tau) tagged
      in
      let verdicts =
        Pool.map
          (fun tau ->
            List.exists
              (fun op -> tau_member ?node_limit ~op task ~sigma ~tau)
              ops)
          hard
      in
      let rec merge tagged verdicts =
        match tagged with
        | [] -> []
        | (tau, true) :: rest -> tau :: merge rest verdicts
        | (tau, false) :: rest -> (
            match verdicts with
            | true :: v -> tau :: merge rest v
            | false :: v -> merge rest v
            | [] -> assert false)
      in
      let c = Complex.of_facets (merge tagged verdicts) in
      (match l with
      | Some l -> memo_add l key sigma c
      | None -> ());
      c

let bin_consensus_ops ids =
  let rec betas = function
    | [] -> [ [] ]
    | i :: rest ->
        let tails = betas rest in
        List.concat_map
          (fun b -> List.map (fun tl -> (i, b) :: tl) tails)
          [ false; true ]
  in
  List.map
    (fun beta ->
      Round_op.bin_consensus_beta (fun i ->
          match List.assoc_opt i beta with Some b -> b | None -> false))
    (betas ids)

let task ?node_limit ?memo ~op t =
  let name = Printf.sprintf "CL[%s](%s)" (Round_op.name op) t.Task.name in
  let delta' = delta ?node_limit ?memo ~op t in
  Task.make ~name ~arity:t.Task.arity ~inputs:t.Task.inputs
    ~outputs:
      (lazy
        (List.fold_left
           (fun acc sigma -> Complex.union acc (delta' sigma))
           Complex.empty (Task.input_simplices t)))
    ~delta:delta'

let fixed_point_on ?node_limit ~op t simplices =
  let compute () =
    Pool.for_all
      (fun sigma ->
        Complex.equal (delta ?node_limit ~op t sigma) (Task.delta t sigma))
      simplices
  in
  if not (store_ready op t) then compute ()
  else
    let op_name = Round_op.name op in
    let key =
      Cert.query_key
        (Cert.Q_fixed_point
           { op_name; task_name = t.Task.name; sigmas = simplices })
    in
    let env = live_env ~op_name ~facets:(Round_op.facets op) t in
    let select = function
      | Cert.Fixed_point fp
        when fp.Cert.op_name = op_name
             && fp.Cert.task_name = t.Task.name
             && List.length fp.Cert.per_sigma = List.length simplices
             && List.for_all2
                  (fun (s, _) s' -> Simplex.equal s s')
                  fp.Cert.per_sigma simplices ->
          Some true
      | _ -> None
    in
    match load_verified ~key ~env ~select with
    | Some fixed -> fixed
    | None ->
        let fixed = compute () in
        (* Only a positive outcome is a certificate (the extensional
           Δ' = Δ data of Lemma 1); a refutation is re-derived from the
           per-σ enumeration certificates instead. *)
        if fixed then
          Cert_store.save ~key
            (Cert.encode
               (Cert.Fixed_point
                  {
                    op_name;
                    task_name = t.Task.name;
                    per_sigma =
                      List.map
                        (fun sigma ->
                          ( sigma,
                            Complex.facets (delta ?node_limit ~op t sigma) ))
                        simplices;
                  }));
        fixed

let iterate ?node_limit ~op k t =
  let rec go k acc = if k <= 0 then acc else go (k - 1) (task ?node_limit ~op acc) in
  go k t

let equal_on ?node_limit ~op t ~reference simplices =
  Pool.for_all
    (fun sigma ->
      Complex.equal (delta ?node_limit ~op t sigma) (Task.delta reference sigma))
    simplices
