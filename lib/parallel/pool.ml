(* Fixed-size domain pool with work-stealing chunk scheduling.

   Design: one batch at a time (serialized by [submit_lock]).  The
   submitter publishes a batch under [mutex], broadcasts, runs the
   batch body itself, then waits until every spawned worker has
   acknowledged the batch generation.  Workers idle in
   [Condition.wait] between batches, so an idle pool costs nothing.

   The batch body is self-limiting: an atomic [joined] gate admits at
   most [jobs] participants (the submitter plus workers, first come
   first served) and assigns each a dense slot; workers beyond the
   gate acknowledge immediately.  Within the body, the input array is
   pre-split into chunks and the chunk ids are dealt into one deque
   per slot.  A participant drains its own deque from the back (LIFO,
   cache-warm); a participant whose deque is empty steals the front
   half of a victim's deque (FIFO, the coldest work) and runs it.
   Each chunk writes results to disjoint indices, so the schedule —
   who ran which chunk, in what order — never changes the output.
   The mutex handshake at the end of the batch establishes the
   happens-before edge that makes those plain array writes visible to
   the submitter. *)

(* ---- job count resolution ---- *)

let override : int option Atomic.t = Atomic.make None

(* An unset or empty/whitespace-only SPEEDUP_JOBS means "use the
   default".  (Empty counts as unset because [Unix.putenv] cannot
   remove a variable, so "" is the only way a test or wrapper script
   can restore the unset state.)  Anything else must parse as a
   positive integer: rejecting 0, negatives, and garbage loudly beats
   silently falling back to a job count the user did not ask for. *)
let env_positive name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
      let s = String.trim s in
      if s = "" then None
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | Some n ->
            invalid_arg
              (Printf.sprintf "%s must be a positive integer, got %d" name n)
        | None ->
            invalid_arg
              (Printf.sprintf "%s must be a positive integer, got %S" name s))

let env_jobs () = env_positive "SPEEDUP_JOBS"

let jobs () =
  match Atomic.get override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

let set_jobs n =
  (match n with
  | Some n when n < 1 ->
      invalid_arg
        (Printf.sprintf "Pool.set_jobs: job count must be positive, got %d" n)
  | Some _ | None -> ());
  Atomic.set override n

(* ---- granularity resolution ---- *)

(* The grain is the minimum number of items a chunk may hold.  A
   fan-out of [len <= grain] items never crosses a domain boundary:
   sub-millisecond work items (Δ-membership set lookups, tiny
   schedule sweeps) are cheaper to run inline than to hand to another
   domain.  Call sites pass [?grain] where they know the per-item
   cost; SPEEDUP_GRAIN raises the floor globally for tuning. *)
let env_grain () = env_positive "SPEEDUP_GRAIN"

let effective_grain site =
  let env = match env_grain () with Some g -> g | None -> 1 in
  max env (match site with Some g when g >= 1 -> g | Some _ | None -> 1)

(* ---- pool state ---- *)

let submit_lock = Mutex.create ()

(* All of the following are read/written under [mutex] only, except
   [workers], which is additionally written under [submit_lock] before
   the publishing lock round (see [ensure_workers]). *)
let mutex = Mutex.create ()
let cond_work = Condition.create ()
let cond_done = Condition.create ()

let generation = ref 0
[@@lint.allow "R1: batch handshake state; every access is under [mutex]"]

let acks = ref 0
[@@lint.allow "R1: batch handshake state; every access is under [mutex]"]

let workers = ref 0
[@@lint.allow
  "R1: batch handshake state; written under [submit_lock] + [mutex] (see \
   ensure_workers), read under [mutex]"]
[@@lint.allow
  "R7: intentionally split locksets, confirmed by the analysis — grown \
   only under [submit_lock] (ensure_workers, one submitter at a time) and \
   compared under [mutex] by the ack handshake; the counter is monotone, \
   so a stale read can only under-count and the handshake re-checks under \
   [mutex]"]

let batch : (unit -> unit) option ref = ref None
[@@lint.allow "R1: batch handshake state; every access is under [mutex]"]

let region_key = Domain.DLS.new_key (fun () -> false)
[@@lint.allow
  "R1: deliberate per-domain flag marking 'inside a pool batch'; never \
   shared across domains, reset on the submitter after each batch"]

let in_parallel_region () = Domain.DLS.get region_key

(* ---- observability ---- *)

type stats = {
  batches : int;
  chunks : int;
  items : int;
  steals : int;
  stolen_chunks : int;
  domain_chunks : (int * int) list;
}

let stats_lock = Mutex.create ()

let st_batches = ref 0
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let st_chunks = ref 0
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let st_items = ref 0
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let st_steals = ref 0
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let st_stolen = ref 0
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let st_domain : (int, int) Hashtbl.t = Hashtbl.create 8
[@@lint.allow "R1: stats accumulator; every access is under [stats_lock]"]

let stats () =
  Mutex.protect stats_lock (fun () ->
      {
        batches = !st_batches;
        chunks = !st_chunks;
        items = !st_items;
        steals = !st_steals;
        stolen_chunks = !st_stolen;
        domain_chunks =
          List.sort
            (fun (a, _) (b, _) -> Int.compare a b)
            (Hashtbl.fold (fun slot n acc -> (slot, n) :: acc) st_domain []);
      })

let reset_stats () =
  Mutex.protect stats_lock (fun () ->
      st_batches := 0;
      st_chunks := 0;
      st_items := 0;
      st_steals := 0;
      st_stolen := 0;
      Hashtbl.reset st_domain)

let merge_stats ~slot ~chunks ~items ~steals ~stolen =
  if chunks > 0 || steals > 0 then
    Mutex.protect stats_lock (fun () ->
        st_chunks := !st_chunks + chunks;
        st_items := !st_items + items;
        st_steals := !st_steals + steals;
        st_stolen := !st_stolen + stolen;
        Hashtbl.replace st_domain slot
          (chunks
          + match Hashtbl.find_opt st_domain slot with Some n -> n | None -> 0))

let rec worker_loop my_gen =
  Mutex.lock mutex;
  let gen, body =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        while !generation = my_gen do
          Condition.wait cond_work mutex
        done;
        (!generation, !batch))
  in
  (match body with Some run -> (try run () with _ -> ()) | None -> ());
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      incr acks;
      if !acks = !workers then Condition.signal cond_done);
  worker_loop gen

(* Called with [submit_lock] held, so [generation] cannot move: the
   captured generation is necessarily older than the batch about to be
   published, and the new worker will ack it. *)
let ensure_workers n =
  while !workers < n do
    incr workers;
    let g = Mutex.protect mutex (fun () -> !generation) in
    ignore
      (Domain.spawn (fun () ->
           Domain.DLS.set region_key true;
           worker_loop g))
  done

let run_batch ~participants run =
  Mutex.lock submit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock submit_lock)
    (fun () ->
      ensure_workers (participants - 1);
      Mutex.protect stats_lock (fun () -> incr st_batches);
      let nworkers =
        Mutex.protect mutex (fun () ->
            batch := Some run;
            incr generation;
            acks := 0;
            Condition.broadcast cond_work;
            !workers)
      in
      let saved = Domain.DLS.get region_key in
      Domain.DLS.set region_key true;
      (try run () with _ -> ());
      Domain.DLS.set region_key saved;
      Mutex.lock mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mutex)
        (fun () ->
          while !acks < nworkers do
            Condition.wait cond_done mutex
          done;
          batch := None))

(* ---- work-stealing deques over a pre-split chunk range ---- *)

(* Each slot owns the contiguous chunk-id range [lo, hi), packed into
   one immediate int (31 bits each half, far beyond any real chunk
   count).  The owner pops from the back (LIFO); thieves take the
   front half (FIFO).  [lo] only ever grows and [hi] only ever
   shrinks, so a single CAS per transition is race-free: competing
   transitions on the same state differ in the packed value and all
   but one retry against the updated range. *)
let pack lo hi = (lo lsl 31) lor hi
let unpack s = (s lsr 31, s land 0x7FFFFFFF)

let rec pop_back d =
  let s = Atomic.get d in
  let lo, hi = unpack s in
  if lo >= hi then None
  else if Atomic.compare_and_set d s (pack lo (hi - 1)) then Some (hi - 1)
  else pop_back d

(* Steal the front half, rounded up so a one-chunk deque is stealable. *)
let rec steal_front d =
  let s = Atomic.get d in
  let lo, hi = unpack s in
  let avail = hi - lo in
  if avail <= 0 then None
  else
    let k = (avail + 1) / 2 in
    if Atomic.compare_and_set d s (pack (lo + k) hi) then Some (lo, lo + k)
    else steal_front d

(* ---- chunked execution over an array ---- *)

(* [process ~lo ~hi] handles indices [lo, hi); it is never called
   concurrently on overlapping ranges.  The first exception cancels
   the remaining chunks and is re-raised on the submitter.  [grain]
   is the pre-resolved minimum chunk size; a fan-out that does not
   fill at least two chunks runs inline on the caller. *)
let parallel_chunks ~grain ~jobs:n ~len process =
  (* Target ~8 chunks per participant so the steal half-lives leave
     slack for imbalance, bounded below by the grain floor. *)
  let chunk = max grain (max 1 ((len + (n * 8) - 1) / (n * 8))) in
  let nchunks = (len + chunk - 1) / chunk in
  if nchunks <= 1 || n <= 1 then begin
    (* Below the parallelism cutoff: run inline, no domain boundary
       crossed, no batch handshake paid. *)
    let stop = Atomic.make false in
    process ~lo:0 ~hi:len ~stop
  end
  else begin
    let per = (nchunks + n - 1) / n in
    let deques =
      Array.init n (fun p ->
          let lo = min nchunks (p * per) in
          let hi = min nchunks ((p + 1) * per) in
          Atomic.make (pack lo hi))
    in
    let joined = Atomic.make 0 in
    let stop = Atomic.make false in
    let error : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    run_batch ~participants:n (fun () ->
        let slot = Atomic.fetch_and_add joined 1 in
        if slot < n then begin
          let my_chunks = ref 0
          and my_items = ref 0
          and my_steals = ref 0
          and my_stolen = ref 0 in
          let run_chunk c =
            incr my_chunks;
            let lo = c * chunk in
            let hi = min len (lo + chunk) in
            my_items := !my_items + (hi - lo);
            (try process ~lo ~hi ~stop
             with exn ->
               let bt = Printexc.get_raw_backtrace () in
               if Atomic.compare_and_set error None (Some (exn, bt)) then
                 Atomic.set stop true)
          in
          (* Phase 1: drain the own deque back-to-front. *)
          let continue = ref true in
          while !continue && not (Atomic.get stop) do
            match pop_back deques.(slot) with
            | Some c -> run_chunk c
            | None -> continue := false
          done;
          (* Phase 2: steal front halves from the other deques until
             a full scan finds everything drained. *)
          let rec steal_loop () =
            if not (Atomic.get stop) then begin
              let found = ref false in
              for k = 1 to n - 1 do
                if (not !found) && not (Atomic.get stop) then
                  match steal_front deques.((slot + k) mod n) with
                  | Some (a, b) ->
                      found := true;
                      incr my_steals;
                      my_stolen := !my_stolen + (b - a);
                      let c = ref a in
                      while !c < b && not (Atomic.get stop) do
                        run_chunk !c;
                        incr c
                      done
                  | None -> ()
              done;
              if !found then steal_loop ()
            end
          in
          steal_loop ();
          merge_stats ~slot ~chunks:!my_chunks ~items:!my_items
            ~steals:!my_steals ~stolen:!my_stolen
        end);
    match Atomic.get error with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let sequential () = jobs () <= 1 || in_parallel_region ()

(* ---- combinators ---- *)

let map ?grain f l =
  let grain = effective_grain grain in
  if sequential () then List.map f l
  else
    let arr = Array.of_list l in
    let len = Array.length arr in
    if len <= grain || len <= 1 then List.map f l
    else begin
      let out = Array.make len None in
      parallel_chunks ~grain ~jobs:(min (jobs ()) len) ~len
        (fun ~lo ~hi ~stop ->
          for i = lo to hi - 1 do
            if not (Atomic.get stop) then out.(i) <- Some (f arr.(i))
          done);
      List.init len (fun i ->
          match out.(i) with Some v -> v | None -> assert false)
    end

let filter_map ?grain f l =
  let grain = effective_grain grain in
  if sequential () then List.filter_map f l
  else
    let arr = Array.of_list l in
    let len = Array.length arr in
    if len <= grain || len <= 1 then List.filter_map f l
    else begin
      let out = Array.make len None in
      parallel_chunks ~grain ~jobs:(min (jobs ()) len) ~len
        (fun ~lo ~hi ~stop ->
          for i = lo to hi - 1 do
            if not (Atomic.get stop) then out.(i) <- Some (f arr.(i))
          done);
      let rec collect i acc =
        if i < 0 then acc
        else
          match out.(i) with
          | Some (Some v) -> collect (i - 1) (v :: acc)
          | Some None -> collect (i - 1) acc
          | None -> assert false
      in
      collect (len - 1) []
    end

let filter ?grain p l =
  if sequential () then List.filter p l
  else filter_map ?grain (fun x -> if p x then Some x else None) l

let for_all ?grain p l =
  let grain = effective_grain grain in
  if sequential () then List.for_all p l
  else
    let arr = Array.of_list l in
    let len = Array.length arr in
    if len <= grain || len <= 1 then List.for_all p l
    else begin
      let ok = Atomic.make true in
      parallel_chunks ~grain ~jobs:(min (jobs ()) len) ~len
        (fun ~lo ~hi ~stop ->
          for i = lo to hi - 1 do
            if (not (Atomic.get stop)) && not (p arr.(i)) then begin
              Atomic.set ok false;
              Atomic.set stop true
            end
          done);
      Atomic.get ok
    end
