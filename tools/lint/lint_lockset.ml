(* R7: interprocedural lockset analysis over the typed trees.

   For every top-level mutable cell (ref, Hashtbl, array, record with
   mutable fields, DLS key — the same creator vocabulary as R1) in a
   directory R1 covers, compute the set of mutexes held on each access
   path and flag cells whose accesses disagree:

     - an access with an *empty* effective lockset while the cell is
       shared is a potential data race (R7 at the access);
     - accesses under *disjoint* locksets mean no mutex protects the
       cell consistently (R7 at the first access that breaks the
       common intersection, naming the offending pair).

   Lockset tracking understands the repo's two locking idioms —
   [Mutex.protect m (fun () -> …)] and
   [Mutex.lock m; Fun.protect ~finally:(… unlock …) …] (the sequence
   continuation after [Mutex.lock m] is credited with [m]) — and three
   structural facts:

     - locks are named canonically: resolved global path, through
       top-level aliases ([let l = lock] counts as [lock]), or a
       record field name for locks carried in records;
     - code inside a callback argument of a receiver (Pool.*,
       Domain.spawn) is *detached*: it runs on another domain, so it
       inherits neither the caller's locks nor its entry lockset;
     - a function called only with lock [m] held may access cells
       relying on [m]: the *entry lockset* of a definition is the
       intersection over its call sites of (locks held at the site ∪
       the caller's own entry lockset), computed as a descending
       fixpoint from ⊤.  Definitions never called (exported API,
       module initialization) have an empty entry lockset.

   Known over-approximations, accepted and documented in docs/LINT.md:
   a lambda built under a lock but run later is credited with the
   lock; the lock added by [Mutex.lock m; …] extends past the
   [Fun.protect] that releases it (the repo idiom keeps the critical
   section inside the protect thunk, so nothing relies on the gap).

   DLS-key cells are tracked but never flagged: per-domain state
   cannot race (R1 already demands a reasoned allow for staleness).
   Suppress a cell with [@@lint.allow "R7: reason"] on its definition
   or a file-level floating attribute. *)

open Typedtree
module S = Set.Make (String)

type cell = {
  cid : string;
  kind : Lint_cmt.cell_kind;
  loc : Location.t;
  src : string;
  suppressed : bool;
}

type access = {
  acell : string;
  aloc : Location.t;
  asrc : string;
  actx : string;  (* enclosing definition id, or "<detached>" *)
  alocks : S.t;
}

type site = { callee : string; caller : string; slocks : S.t }

let kind_name = function
  | Lint_cmt.Ref -> "ref"
  | Table -> "table"
  | Array -> "array"
  | Record -> "record"
  | Dls -> "dls"
  | Other -> "other"

(* ---- suppressions ---- *)

let rules_of_attrs attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = Lint_cmt.allow_attr then
        Lint_cmt.allow_rule a.attr_payload
      else None)
    attrs

let file_suppressions (m : Lint_cmt.modl) =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a -> rules_of_attrs [ a ]
      | _ -> [])
    m.str.str_items

(* ---- the lockset walk ---- *)

let mutex_lock_arg (e : expression) =
  match e.exp_desc with
  | Texp_apply (f, args)
    when match f.exp_desc with
         | Texp_ident (p, _, _) -> Lint_cmt.norm_name p = "Mutex.lock"
         | _ -> false ->
      List.find_map (fun (_, a) -> a) args
  | _ -> None

let walk_def ~tbl ~cells ~record_access ~record_site
    (d : Lint_callgraph.def) =
  let resolve = Lint_callgraph.resolve_ident tbl d in
  let canon id = Lint_callgraph.canonical tbl id in
  let locks = ref S.empty in
  let context = ref d.id in
  let lock_name (m : expression) =
    match m.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve p with
        | `Global id -> Some (canon id)
        | `Local ->
            (* a mutex received as a parameter: name it per definition
               so two different callers' locks never unify *)
            Some (Printf.sprintf "<local:%s:%s>" d.id (Path.name p)))
    | Texp_field (_, _, lbl) -> Some ("<field:" ^ lbl.Types.lbl_name ^ ">")
    | _ -> None
  in
  let is_protect p =
    match resolve p with
    | `Global id -> Lint_cmt.dot_suffix (canon id) "Mutex.protect"
    | `Local -> false
  in
  (* A local function passed by name, [Mutex.protect m probe], runs
     with [m] held.  Its body is credited with the locks common to its
     uses when every use is such a callback argument; any other use (a
     call, an escape) voids the credit. *)
  let credit = ref Ident.Map.empty in
  let note id locks =
    credit :=
      Ident.Map.update id
        (function
          | None -> Some locks
          | Some prev ->
              Some (Option.bind prev (fun a -> Option.map (S.inter a) locks)))
        !credit
  in
  let scan =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_apply
              ( { exp_desc = Texp_ident (p, _, _); _ },
                [ (_, Some m); (_, Some { exp_desc = Texp_ident (Pident id, _, _); _ }) ] )
            when is_protect p ->
              note id (Option.map S.singleton (lock_name m));
              it.expr it m
          | Texp_ident (Pident id, _, _) -> note id None
          | _ -> Tast_iterator.default_iterator.expr it e);
    }
  in
  scan.expr scan d.body;
  let credited id =
    match Ident.Map.find_opt id !credit with
    | Some (Some locks) -> locks
    | Some None | None -> S.empty
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          let visit c = it.Tast_iterator.expr it c in
          let default () = Tast_iterator.default_iterator.expr it e in
          match e.exp_desc with
          | Texp_let (_, vbs, body) ->
              List.iter
                (fun vb ->
                  let saved = !locks in
                  (match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> locks := S.union (credited id) saved
                  | _ -> ());
                  visit vb.vb_expr;
                  locks := saved)
                vbs;
              visit body
          | Texp_ident (p, _, _) -> (
              match resolve p with
              | `Global id ->
                  let cid = canon id in
                  if Hashtbl.mem cells cid then
                    record_access
                      {
                        acell = cid;
                        aloc = e.exp_loc;
                        asrc = d.src;
                        actx = !context;
                        alocks = !locks;
                      }
              | `Local -> ())
          | Texp_sequence (e1, e2) -> (
              match Option.bind (mutex_lock_arg e1) lock_name with
              | Some ln ->
                  visit e1;
                  let saved = !locks in
                  locks := S.add ln !locks;
                  visit e2;
                  locks := saved
              | None -> default ())
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args)
            -> (
              match resolve p with
              | `Global id -> (
                  let cname = canon id in
                  record_site
                    { callee = cname; caller = !context; slocks = !locks };
                  if Lint_cmt.dot_suffix cname "Mutex.protect" then
                    match args with
                    | (_, Some m) :: rest when lock_name m <> None ->
                        let ln = Option.get (lock_name m) in
                        visit f;
                        visit m;
                        let saved = !locks in
                        locks := S.add ln !locks;
                        List.iter (fun (_, a) -> Option.iter visit a) rest;
                        locks := saved
                    | _ -> default ()
                  else if Lint_cmt.is_receiver cname then (
                    visit f;
                    let sl = !locks and sc = !context in
                    locks := S.empty;
                    context := "<detached>";
                    List.iter (fun (_, a) -> Option.iter visit a) args;
                    locks := sl;
                    context := sc)
                  else default ())
              | `Local -> default ())
          | _ -> default ());
    }
  in
  it.expr it d.body

(* ---- entry locksets ---- *)

(* entry(f) = ⋂ over call sites of f of (site locks ∪ entry(caller)),
   as a descending fixpoint from ⊤ (represented None).  Contexts with
   no call sites — exported functions, module initialization,
   "<detached>" — have entry ∅. *)
let entry_locksets ~tbl sites =
  let by_callee = Hashtbl.create 64 in
  let entry = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem tbl s.callee then (
        Hashtbl.replace by_callee s.callee
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_callee s.callee));
        Hashtbl.replace entry s.callee None))
    sites;
  (* Iterate the fixpoint over a sorted callee list so convergence —
     and the intermediate states a debugger would see — are
     independent of hash order. *)
  let callees =
    Hashtbl.fold (fun callee _ acc -> callee :: acc) by_callee []
    |> List.sort String.compare
  in
  let entry_of ctx =
    match Hashtbl.find_opt entry ctx with
    | Some v -> v
    | None -> Some S.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun callee ->
        let sites = Hashtbl.find by_callee callee in
        let next =
          List.fold_left
            (fun acc s ->
              match entry_of s.caller with
              | None -> acc (* ⊤ caller contributes ⊤: identity for ⋂ *)
              | Some caller_entry -> (
                  let contrib = S.union s.slocks caller_entry in
                  match acc with
                  | None -> Some contrib
                  | Some a -> Some (S.inter a contrib)))
            None sites
        in
        if next <> entry_of callee then (
          Hashtbl.replace entry callee next;
          changed := true))
      callees
  done;
  fun ctx -> match entry_of ctx with None -> S.empty | Some s -> s

(* ---- verdicts and diagnostics ---- *)

let fmt_locks s =
  if S.is_empty s then "{}" else "{" ^ String.concat ", " (S.elements s) ^ "}"

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let analyze ~(mods : Lint_cmt.modl list) ~(defs : Lint_callgraph.def list)
    ~tbl =
  let file_sup = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace file_sup m.Lint_cmt.src (file_suppressions m)) mods;
  let suppressed_here src rules =
    List.mem "R7" rules || List.mem "all" rules
    ||
    match Hashtbl.find_opt file_sup src with
    | Some frs -> List.mem "R7" frs || List.mem "all" frs
    | None -> false
  in
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (d : Lint_callgraph.def) ->
      if (Lint_config.classify d.src).Lint_config.r1 then
        match Lint_cmt.creator_kind d.body with
        | Some (kind, _) ->
            Hashtbl.replace cells d.id
              {
                cid = d.id;
                kind;
                loc = d.loc;
                src = d.src;
                suppressed = suppressed_here d.src (rules_of_attrs d.attrs);
              }
        | None -> ())
    defs;
  let accesses = ref [] and sites = ref [] in
  List.iter
    (fun d ->
      walk_def ~tbl ~cells
        ~record_access:(fun a -> accesses := a :: !accesses)
        ~record_site:(fun s -> sites := s :: !sites)
        d)
    defs;
  let entry = entry_locksets ~tbl !sites in
  let effective a = S.union a.alocks (entry a.actx) in
  let by_cell = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Hashtbl.replace by_cell a.acell
        (a :: Option.value ~default:[] (Hashtbl.find_opt by_cell a.acell)))
    !accesses;
  let diags = ref [] and verdicts = ref [] in
  let report ~loc ~src msg =
    diags := Lint_diag.of_location ~rule:"R7" ~file:src loc msg :: !diags
  in
  let cells_sorted =
    Hashtbl.fold (fun _ c acc -> c :: acc) cells []
    |> List.sort (fun a b ->
           let c = String.compare a.src b.src in
           if c <> 0 then c else Int.compare (line_of a.loc) (line_of b.loc))
  in
  List.iter
    (fun c ->
      let accs =
        Option.value ~default:[] (Hashtbl.find_opt by_cell c.cid)
        |> List.sort (fun a b ->
               let cmp = String.compare a.asrc b.asrc in
               if cmp <> 0 then cmp
               else
                 let cmp = Int.compare (line_of a.aloc) (line_of b.aloc) in
                 if cmp <> 0 then cmp
                 else
                   Int.compare a.aloc.loc_start.pos_cnum
                     b.aloc.loc_start.pos_cnum)
      in
      let verdict, locks =
        if c.kind = Lint_cmt.Dls then ("per-domain", S.empty)
        else if c.suppressed then ("suppressed", S.empty)
        else if accs = [] then ("unused", S.empty)
        else
          let effs = List.map effective accs in
          let common =
            List.fold_left S.inter (List.hd effs) (List.tl effs)
          in
          if not (S.is_empty common) then ("verified", common)
          else
            let empties =
              List.filter (fun a -> S.is_empty (effective a)) accs
            in
            if empties <> [] then (
              let others =
                List.fold_left
                  (fun acc a -> S.union acc (effective a))
                  S.empty accs
              in
              List.iter
                (fun a ->
                  report ~loc:a.aloc ~src:a.asrc
                    (Printf.sprintf
                       "shared mutable cell '%s' (defined at %s:%d) is \
                        accessed with no lock held; %s; guard the access, \
                        make the cell Atomic, or suppress at the definition \
                        with [@lint.allow \"R7: reason\"]"
                       c.cid c.src (line_of c.loc)
                       (if S.is_empty others then
                          "no access of it ever holds a lock"
                        else
                          Printf.sprintf "other accesses hold %s"
                            (fmt_locks others))))
                empties;
              ("empty-lockset", S.empty))
            else (
              (* every access holds some lock, but no mutex is common:
                 report at the first access that breaks the running
                 intersection, naming a disjoint earlier access *)
              let arr = Array.of_list accs in
              let effa = Array.of_list effs in
              let j = ref 1 and acc = ref effa.(0) and broke = ref false in
              while (not !broke) && !j < Array.length arr do
                let next = S.inter !acc effa.(!j) in
                if S.is_empty next then broke := true
                else (
                  acc := next;
                  incr j)
              done;
              let j = min !j (Array.length arr - 1) in
              let i =
                let rec find i =
                  if i >= j then 0
                  else if S.is_empty (S.inter effa.(i) effa.(j)) then i
                  else find (i + 1)
                in
                find 0
              in
              let a = arr.(j) in
              report ~loc:a.aloc ~src:a.asrc
                (Printf.sprintf
                   "inconsistent locking for shared mutable cell '%s' \
                    (defined at %s:%d): this access holds %s but the access \
                    at %s:%d holds %s; no mutex is common to every access — \
                    pick one lock, or suppress at the definition with \
                    [@lint.allow \"R7: reason\"]"
                   c.cid c.src (line_of c.loc)
                   (fmt_locks effa.(j))
                   arr.(i).asrc (line_of arr.(i).aloc)
                   (fmt_locks effa.(i)));
              ("inconsistent", S.empty))
      in
      verdicts :=
        Jsonl.Obj
          [
            ("cell", Jsonl.String c.cid);
            ("kind", Jsonl.String (kind_name c.kind));
            ("src", Jsonl.String c.src);
            ("line", Jsonl.Int (line_of c.loc));
            ("accesses", Jsonl.Int (List.length accs));
            ("verdict", Jsonl.String verdict);
            ( "locks",
              Jsonl.List (List.map (fun l -> Jsonl.String l) (S.elements locks))
            );
          ]
        :: !verdicts)
    cells_sorted;
  (List.sort_uniq Lint_diag.compare !diags, Jsonl.List (List.rev !verdicts))
