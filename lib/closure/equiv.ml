(* Deciding task-solvability equivalence of algebra terms by running
   the closure/solver pipeline over both sides of a fixed task battery
   and comparing fingerprints.  See equiv.mli for the contract. *)

type probe = { label : string; lhs : string; rhs : string }

type outcome = {
  lhs : Algebra.t;
  rhs : Algebra.t;
  n : int;
  equivalent : bool;
  probes : probe list;
}

let disagreement outcome =
  List.find_opt
    (fun (p : probe) -> not (String.equal p.lhs p.rhs))
    outcome.probes

(* The probe battery: small, registry-resolvable tasks (their names
   reconstruct the task in any session, so the inner closure runs are
   store-persistent).  Consensus separates models by connectivity,
   approximate agreement by convergence speed (it is what tells IIS
   from its d-solo extensions), set agreement by higher connectivity
   at n = 3. *)
let battery ~n =
  List.concat_map
    (fun n ->
      List.map
        (fun task -> (n, task))
        ([
           Consensus.binary ~n;
           Approx_agreement.task ~n ~m:2 ~eps:(Frac.make 1 2);
         ]
        @
        if n >= 3 then
          [
            Set_agreement.task ~n ~k:2
              ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ];
          ]
        else []))
    (List.init n (fun i -> i + 1))

(* Canonical fingerprint of Δ'[op](σ) over every input simplex: facet
   renderings are structural (no interned ids leak) and sorted, so the
   digest is identical across sessions and job counts. *)
let closure_fingerprint ?node_limit ?should_stop ~op task =
  let per_sigma =
    List.map
      (fun sigma ->
        let dprime = Closure.delta ?node_limit ?should_stop ~op task sigma in
        let facets =
          List.sort String.compare
            (List.map Simplex.to_string (Complex.facets dprime))
        in
        Simplex.to_string sigma ^ " -> " ^ String.concat " " facets)
      (Task.input_simplices task)
  in
  Digest.to_hex (Digest.string (String.concat "\n" per_sigma))

let verdict_name = function
  | Solvability.Solvable _ -> "solvable"
  | Solvability.Unsolvable -> "unsolvable"
  | Solvability.Undecided -> "undecided"

let solvable_fingerprint ?node_limit ?should_stop ~term task =
  verdict_name
    (Solvability.decide ?node_limit ?should_stop
       ~inputs:(Task.input_simplices task)
       ~protocol:(fun sigma -> Complex.of_facets (Algebra.facets term sigma))
       ~delta:(Task.delta task) ())

(* Closure fingerprints are compared at every battery instance; the
   solver's exhaustive map search is run only on instances with at
   most two processes — it grows super-exponentially (74 s for 2-set
   agreement at n = 3 against milliseconds for every closure sweep),
   and the per-σ closure fingerprints are a strictly finer invariant
   at the larger sizes anyway. *)
let solvable_size_cap = 2

let compute_probes ?node_limit ?should_stop ~n a b =
  List.concat_map
    (fun (n', task) ->
      let name = task.Task.name in
      let closure_of term =
        closure_fingerprint ?node_limit ?should_stop
          ~op:(Round_op.algebra term) task
      in
      let solvable_of term =
        solvable_fingerprint ?node_limit ?should_stop ~term task
      in
      {
        label = Printf.sprintf "closure[%s]" name;
        lhs = closure_of a;
        rhs = closure_of b;
      }
      ::
      (if n' <= solvable_size_cap then
         [
           {
             label = Printf.sprintf "solvable-1round[%s]" name;
             lhs = solvable_of a;
             rhs = solvable_of b;
           };
         ]
       else []))
    (battery ~n)

(* In-process verdict memo, keyed on the canonically ordered pair.
   Hit from daemon worker domains, so accesses are mutex-guarded;
   verdicts are pure functions of their keys. *)
let memo_lock = Mutex.create ()

let memo_table : (string * string * int, bool * probe list) Hashtbl.t =
  Hashtbl.create 16
[@@lint.allow "R1: accesses guarded by memo_lock (see comment above)"]

let probes_of_triples triples =
  List.map (fun (label, lhs, rhs) : probe -> { label; lhs; rhs }) triples

let triples_of_probes probes =
  List.map (fun (p : probe) -> (p.label, p.lhs, p.rhs)) probes

let decide ?node_limit ?should_stop ?(memo = true) ~n lhs rhs =
  if n < 1 then invalid_arg "Equiv.decide: n < 1";
  if Algebra.equal lhs rhs then
    let name = Algebra.to_string lhs in
    {
      lhs;
      rhs;
      n;
      equivalent = true;
      probes = [ { label = "canonical-form"; lhs = name; rhs = name } ];
    }
  else
    (* Canonical orientation: the memo and the store key on the sorted
       pair, so [decide t u] and [decide u t] share one entry. *)
    let swapped = Algebra.compare lhs rhs > 0 in
    let a, b = if swapped then (rhs, lhs) else (lhs, rhs) in
    let an = Algebra.to_string a and bn = Algebra.to_string b in
    let orient (equivalent, probes) =
      let probes =
        if swapped then
          List.map (fun (p : probe) -> { p with lhs = p.rhs; rhs = p.lhs }) probes
        else probes
      in
      { lhs; rhs; n; equivalent; probes }
    in
    let memo_key = (an, bn, n) in
    let memo_find () =
      if not memo then None
      else
        Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo_table memo_key)
    in
    match memo_find () with
    | Some cached -> orient cached
    | None ->
        (* Store read-through: [Cert.verify] replays the structural
           checks against the canonical grammar. *)
        let result =
          Cert.cached ~env:Cert_registry.env
            (Cert.Q_equiv { lhs = an; rhs = bn; n })
            (function
              | Cert.Equivalence e ->
                  Some (e.Cert.equivalent, probes_of_triples e.Cert.probes)
              | _ -> None)
            ~compute:(fun () ->
              let probes = compute_probes ?node_limit ?should_stop ~n a b in
              ( List.for_all
                  (fun (p : probe) -> String.equal p.lhs p.rhs)
                  probes,
                probes ))
            ~certify:(fun (equivalent, probes) ->
              Some
                (Cert.Equivalence
                   {
                     lhs = an;
                     rhs = bn;
                     n;
                     equivalent;
                     probes = triples_of_probes probes;
                   }))
        in
        if memo then
          Mutex.protect memo_lock (fun () ->
              if not (Hashtbl.mem memo_table memo_key) then
                Hashtbl.add memo_table memo_key result);
        orient result
