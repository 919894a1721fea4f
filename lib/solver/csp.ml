(* Bitsets are OCaml ints: [bits] members per word, member [j] is bit
   [j mod bits] of word [j / bits]. *)
let bits = Sys.int_size

let words n = (n + bits - 1) / bits

(* Kernighan: one step per set bit, and removed sets are small. *)
let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* A table compiled into support bitsets: the tuples that take value
   [k] at position [p] are the [nwords]-word bitset at
   [supports.(offsets.(p) + k * nwords)].  Values at or past
   [widths.(p)] occur in no tuple. *)
type table = {
  arity : int;
  ntuples : int;
  nwords : int;
  widths : int array;
  offsets : int array;
  supports : int array;
}

let compile_as fn ~arity tuples =
  let widths = Array.make arity 0 in
  Array.iter
    (fun tuple ->
      if Array.length tuple <> arity then invalid_arg (fn ^ ": tuple arity mismatch");
      Array.iteri
        (fun p k ->
          if k < 0 then invalid_arg (fn ^ ": negative tuple value");
          if k >= widths.(p) then widths.(p) <- k + 1)
        tuple)
    tuples;
  let ntuples = Array.length tuples in
  let nwords = words ntuples in
  let offsets = Array.make arity 0 in
  let total = ref 0 in
  for p = 0 to arity - 1 do
    offsets.(p) <- !total;
    total := !total + (widths.(p) * nwords)
  done;
  let supports = Array.make !total 0 in
  Array.iteri
    (fun j tuple ->
      Array.iteri
        (fun p k ->
          let i = offsets.(p) + (k * nwords) + (j / bits) in
          supports.(i) <- supports.(i) lor (1 lsl (j mod bits)))
        tuple)
    tuples;
  { arity; ntuples; nwords; widths; offsets; supports }

let compile ~arity tuples = compile_as "Csp.compile" ~arity tuples

let tuples tb =
  Array.init tb.ntuples (fun j ->
      Array.init tb.arity (fun p ->
          let rec value k =
            let w = tb.supports.(tb.offsets.(p) + (k * tb.nwords) + (j / bits)) in
            if w land (1 lsl (j mod bits)) <> 0 then k else value (k + 1)
          in
          value 0))

type stats = { nodes : int; revisions : int }

(* Domains are bitsets over candidate indices, one flat array for all
   variables: variable [v] owns [words counts.(v)] words from
   [dom_off.(v)]. *)
type t = {
  num_vars : int;
  counts : int array;
  dom_off : int array;
  dom : int array;
  dom_size : int array;
  mutable cons_rev : (int array * table) list;  (* accumulated in reverse *)
  mutable stats : stats;
}

type result = Sat of int array | Unsat | Unknown

exception Inconsistent
exception Limit
exception Interrupted

let create ~num_vars ~candidate_counts =
  if Array.length candidate_counts <> num_vars then
    invalid_arg "Csp.create: counts length mismatch";
  let dom_off = Array.make (num_vars + 1) 0 in
  for v = 0 to num_vars - 1 do
    dom_off.(v + 1) <- dom_off.(v) + words candidate_counts.(v)
  done;
  let dom = Array.make dom_off.(num_vars) 0 in
  Array.iteri
    (fun v c ->
      for k = 0 to c - 1 do
        let i = dom_off.(v) + (k / bits) in
        dom.(i) <- dom.(i) lor (1 lsl (k mod bits))
      done)
    candidate_counts;
  {
    num_vars;
    counts = candidate_counts;
    dom_off;
    dom;
    dom_size = Array.copy candidate_counts;
    cons_rev = [];
    stats = { nodes = 0; revisions = 0 };
  }

let last_stats t = t.stats

(* The range checks make every read of [solve] in bounds: scope
   variables index the domains, and a value below [widths.(p)] is
   below the scope variable's candidate count. *)
let add_as fn t ~scope tb =
  if Array.length scope <> tb.arity then invalid_arg (fn ^ ": tuple arity mismatch");
  Array.iteri
    (fun p v ->
      if v < 0 || v >= t.num_vars then invalid_arg (fn ^ ": scope variable out of range");
      if tb.widths.(p) > t.counts.(v) then
        invalid_arg (fn ^ ": tuple value out of range"))
    scope;
  t.cons_rev <- (scope, tb) :: t.cons_rev

let add_table t ~scope tb = add_as "Csp.add_table" t ~scope tb

let add_table_constraint t ~scope ~tuples =
  let fn = "Csp.add_table_constraint" in
  add_as fn t ~scope (compile_as fn ~arity:(Array.length scope) tuples)

let pin t ~var ~value =
  if value < 0 || value >= t.counts.(var) then invalid_arg "Csp.pin: bad value";
  let o = t.dom_off.(var) and i = value / bits and b = 1 lsl (value mod bits) in
  let alive = t.dom.(o + i) land b <> 0 in
  (* Conflicting pins empty the domain; solve will report Unsat. *)
  Array.fill t.dom o (t.dom_off.(var + 1) - o) 0;
  if alive then t.dom.(o + i) <- b;
  t.dom_size.(var) <- (if alive then 1 else 0)

(* Process-wide totals, for the stats line. *)
let total_solves = Atomic.make 0
let total_nodes = Atomic.make 0

type totals = { solves : int; nodes_searched : int }

let totals () =
  { solves = Atomic.get total_solves; nodes_searched = Atomic.get total_nodes }

(* ----- search state ----- *)

type state = {
  p : t;
  scopes : int array array;
  tables : table array;
  var_cons : int array array;
  mutable trail : int array;  (* (word index, old word, var, old size) *)
  mutable trail_len : int;
  in_queue : Bytes.t;
  queue : int array;  (* FIFO ring; a constraint is queued at most once *)
  mutable q_head : int;
  mutable q_len : int;
  live : int array;  (* scratch for multi-word tables *)
  acc : int array;
  mutable nodes : int;
  mutable revisions : int;
  node_limit : int;
  should_stop : unit -> bool;
}

let alive st v k =
  st.p.dom.(st.p.dom_off.(v) + (k / bits)) land (1 lsl (k mod bits)) <> 0

(* Narrow domain word [i] of [v] to [w], a strict subset of it. *)
let narrow st v i w =
  let p = st.p in
  if st.trail_len + 4 > Array.length st.trail then begin
    let bigger = Array.make (2 * Array.length st.trail) 0 in
    Array.blit st.trail 0 bigger 0 st.trail_len;
    st.trail <- bigger
  end;
  let old = p.dom.(i) and n = st.trail_len in
  st.trail.(n) <- i;
  st.trail.(n + 1) <- old;
  st.trail.(n + 2) <- v;
  st.trail.(n + 3) <- p.dom_size.(v);
  st.trail_len <- n + 4;
  p.dom.(i) <- w;
  p.dom_size.(v) <- p.dom_size.(v) - popcount (old land lnot w);
  if p.dom_size.(v) = 0 then raise Inconsistent

let enqueue st c =
  if Bytes.get st.in_queue c = '\000' then begin
    Bytes.set st.in_queue c '\001';
    let n = Array.length st.queue in
    st.queue.((st.q_head + st.q_len) mod n) <- c;
    st.q_len <- st.q_len + 1
  end

let enqueue_var st v =
  let cs = st.var_cons.(v) in
  for j = 0 to Array.length cs - 1 do
    enqueue st cs.(j)
  done

(* Whether value [k] at the position whose supports start at [base]
   meets a live tuple: [live] for one-word tables, [st.live] else. *)
let supported st tb base live k =
  let nw = tb.nwords in
  if nw = 1 then tb.supports.(base + k) land live <> 0
  else begin
    let w = ref 0 in
    while !w < nw && tb.supports.(base + (k * nw) + !w) land st.live.(!w) = 0 do
      incr w
    done;
    !w < nw
  end

(* Drop the values of the variable at [pos] that no live tuple
   supports. *)
let prune st scope tb pos live =
  let p = st.p in
  let v = scope.(pos) in
  let width = tb.widths.(pos) and base = tb.offsets.(pos) and o = p.dom_off.(v) in
  let changed = ref false in
  for dw = 0 to p.dom_off.(v + 1) - o - 1 do
    let word = p.dom.(o + dw) in
    if word <> 0 then begin
      let keep = ref 0 in
      for b = 0 to Int.min bits (width - (dw * bits)) - 1 do
        if word land (1 lsl b) <> 0 && supported st tb base live ((dw * bits) + b)
        then keep := !keep lor (1 lsl b)
      done;
      if !keep <> word then begin
        narrow st v (o + dw) !keep;
        changed := true
      end
    end
  done;
  if !changed then enqueue_var st v

(* GAC on one table: the live tuples are the AND over positions of the
   OR of the supports of the alive values; a value whose support misses
   every live tuple goes.  The same values go as when scanning the
   tuples one by one, and nothing is allocated. *)
let revise st ci =
  st.revisions <- st.revisions + 1;
  let scope = st.scopes.(ci) and tb = st.tables.(ci) in
  let dom = st.p.dom and sup = tb.supports and nw = tb.nwords in
  if nw = 1 then begin
    let live = ref (-1) in
    for pos = 0 to tb.arity - 1 do
      let base = tb.offsets.(pos) and o = st.p.dom_off.(scope.(pos)) in
      let acc = ref 0 in
      for k = 0 to tb.widths.(pos) - 1 do
        if dom.(o + (k / bits)) land (1 lsl (k mod bits)) <> 0 then
          acc := !acc lor sup.(base + k)
      done;
      live := !live land !acc
    done;
    if !live = 0 then raise Inconsistent;
    for pos = 0 to tb.arity - 1 do
      prune st scope tb pos !live
    done
  end
  else begin
    let live = st.live and acc = st.acc in
    Array.fill live 0 nw (-1);
    for pos = 0 to tb.arity - 1 do
      let base = tb.offsets.(pos) and o = st.p.dom_off.(scope.(pos)) in
      Array.fill acc 0 nw 0;
      for k = 0 to tb.widths.(pos) - 1 do
        if dom.(o + (k / bits)) land (1 lsl (k mod bits)) <> 0 then
          for w = 0 to nw - 1 do
            acc.(w) <- acc.(w) lor sup.(base + (k * nw) + w)
          done
      done;
      for w = 0 to nw - 1 do
        live.(w) <- live.(w) land acc.(w)
      done
    done;
    let w = ref 0 in
    while !w < nw && live.(!w) = 0 do
      incr w
    done;
    if !w = nw then raise Inconsistent;
    for pos = 0 to tb.arity - 1 do
      prune st scope tb pos 0
    done
  end

let propagate st =
  while st.q_len > 0 do
    let ci = st.queue.(st.q_head) in
    st.q_head <- (st.q_head + 1) mod Array.length st.queue;
    st.q_len <- st.q_len - 1;
    Bytes.set st.in_queue ci '\000';
    revise st ci
  done

let enqueue_all st =
  for ci = 0 to Array.length st.tables - 1 do
    enqueue st ci
  done

let rollback st mark =
  let p = st.p in
  while st.trail_len > mark do
    let n = st.trail_len - 4 in
    p.dom.(st.trail.(n)) <- st.trail.(n + 1);
    p.dom_size.(st.trail.(n + 2)) <- st.trail.(n + 3);
    st.trail_len <- n
  done;
  let n = Array.length st.queue in
  for j = 0 to st.q_len - 1 do
    Bytes.set st.in_queue st.queue.((st.q_head + j) mod n) '\000'
  done;
  st.q_len <- 0

let pick_var st =
  let best = ref (-1) and best_size = ref max_int in
  for v = 0 to st.p.num_vars - 1 do
    let s = st.p.dom_size.(v) in
    if s > 1 && s < !best_size then begin
      best := v;
      best_size := s
    end
  done;
  !best

let extract st =
  Array.init st.p.num_vars (fun v ->
      let rec first k =
        if k >= st.p.counts.(v) then
          invalid_arg "Csp.extract: empty domain in solution"
        else if alive st v k then k
        else first (k + 1)
      in
      first 0)

(* Assign [v := k]: narrow every domain word of [v] to [k]'s bit. *)
let assign st v k =
  let o = st.p.dom_off.(v) in
  for dw = 0 to st.p.dom_off.(v + 1) - o - 1 do
    let w = if dw = k / bits then 1 lsl (k mod bits) else 0 in
    if st.p.dom.(o + dw) <> w then narrow st v (o + dw) w
  done

let rec search st =
  st.nodes <- st.nodes + 1;
  if st.nodes > st.node_limit then raise Limit;
  (* Cooperative cancellation: the polling cadence (every 256 nodes)
     keeps clock reads off the hot path while bounding the response
     latency to a few thousand table lookups. *)
  if st.nodes land 255 = 0 && st.should_stop () then raise Interrupted;
  let v = pick_var st in
  if v < 0 then Some (extract st)
  else
    let rec try_values k =
      if k >= st.p.counts.(v) then None
      else if not (alive st v k) then try_values (k + 1)
      else
        let mark = st.trail_len in
        match
          assign st v k;
          enqueue_var st v;
          propagate st
        with
        | () -> (
            match search st with
            | Some _ as s -> s
            | None ->
                rollback st mark;
                try_values (k + 1))
        | exception Inconsistent ->
            rollback st mark;
            try_values (k + 1)
    in
    try_values 0

let solve ?(node_limit = 10_000_000) ?(should_stop = fun () -> false) t =
  if should_stop () then raise Interrupted;
  Atomic.incr total_solves;
  let cons = Array.of_list (List.rev t.cons_rev) in
  let ncons = Array.length cons in
  (* Each variable's constraints, latest first. *)
  let var_cons = Array.make t.num_vars [] in
  Array.iteri
    (fun ci (scope, _) ->
      Array.iter (fun v -> var_cons.(v) <- ci :: var_cons.(v)) scope)
    cons;
  (* Variables with an empty candidate set are unsatisfiable up front
     (they cannot be mapped anywhere). *)
  if Array.exists (fun s -> s = 0) t.dom_size then begin
    t.stats <- { nodes = 0; revisions = 0 };
    Unsat
  end
  else begin
    let scratch =
      Array.fold_left (fun m (_, tb) -> max m tb.nwords) 0 cons
    in
    let st =
      {
        p = t;
        scopes = Array.map fst cons;
        tables = Array.map snd cons;
        var_cons = Array.map Array.of_list var_cons;
        trail = Array.make 256 0;
        trail_len = 0;
        in_queue = Bytes.make ncons '\000';
        queue = Array.make (max 1 ncons) 0;
        q_head = 0;
        q_len = 0;
        live = Array.make scratch 0;
        acc = Array.make scratch 0;
        nodes = 0;
        revisions = 0;
        node_limit;
        should_stop;
      }
    in
    let restore () =
      t.stats <- { nodes = st.nodes; revisions = st.revisions };
      ignore (Atomic.fetch_and_add total_nodes st.nodes);
      rollback st 0
    in
    match
      enqueue_all st;
      propagate st;
      search st
    with
    | Some assignment ->
        restore ();
        Sat assignment
    | None ->
        restore ();
        Unsat
    | exception Inconsistent ->
        restore ();
        Unsat
    | exception Limit ->
        restore ();
        Unknown
    | exception Interrupted ->
        restore ();
        raise Interrupted
  end
