(* Cross-module call graph over the typed trees, and pool-reachability
   inference.

   A definition is *pool-reachable* when its code can run inside a
   parallel region: on a pool worker (a callback given to
   Pool.map/filter_map/filter/for_all) or on a spawned
   domain (Domain.spawn).  Rather than trusting the hand-maintained
   [Lint_config.parallel_reachable] list, the inference computes the
   set from the program:

     seed    the receiver functions themselves (Pool.*, Domain.spawn —
             matched on resolved paths, see Lint_cmt.is_receiver);
     rule 1  if a definition is reachable, every global it mentions is
             reachable (its body may execute in the region);
     rule 2  at any call site of a reachable callee (or a receiver),
             every global mentioned in the argument expressions is
             reachable — this carries higher-order flows, e.g. a
             protocol function passed through [Solvability.decide]
             into a Pool callback;
     rule 3  a call site of a *receiver* whose arguments mention local
             (function-scoped) values marks the enclosing definition
             reachable: the locals' bodies are lexically inside it, so
             its mention set over-approximates theirs (this covers
             [Domain.spawn worker_loop] where [worker_loop] is a local
             function).

   The result is deliberately an over-approximation — it scopes safety
   rules (R1/R7), so erring toward inclusion is the safe direction.
   [config_drift] diffs the directory projection of the set against
   [Lint_config.parallel_reachable] and reports both stale and missing
   entries as SCOPE findings, so the checked-in list can never rot. *)

open Typedtree

type def = {
  id : string;  (* "Module[.Sub].name", or "Module.<def:N>" for anonymous *)
  src : string;
  loc : Location.t;
  stack : string list;  (* enclosing module path, outermost first *)
  body : expression;
  alias_of : Path.t option;  (* body is a bare identifier *)
  attrs : Parsetree.attributes;  (* binding attributes, for suppressions *)
}

(* ---- definition collection ---- *)

let collect (mods : Lint_cmt.modl list) =
  let defs = ref [] in
  let walk_module (m : Lint_cmt.modl) =
    let anon = ref 0 in
    let add stack name loc body alias attrs =
      defs :=
        { id = String.concat "." (stack @ [ name ]); src = m.src; loc; stack;
          body; alias_of = alias; attrs }
        :: !defs
    in
    let fresh_anon () =
      incr anon;
      Printf.sprintf "<def:%d>" !anon
    in
    let rec walk_items stack items =
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (_, name)
                  (* [let x : t = …] types as [(_ as x) : t] *)
                  | Tpat_alias ({ pat_desc = Tpat_any; _ }, _, name) ->
                      let alias =
                        match vb.vb_expr.exp_desc with
                        | Texp_ident (p, _, _) -> Some p
                        | _ -> None
                      in
                      add stack name.txt vb.vb_loc vb.vb_expr alias
                        vb.vb_attributes
                  | _ ->
                      (* unit/tuple patterns: side-effecting top-level
                         code such as [let () = Hashtbl.add …] *)
                      add stack (fresh_anon ()) vb.vb_loc vb.vb_expr None
                        vb.vb_attributes)
                vbs
          | Tstr_eval (e, attrs) ->
              add stack (fresh_anon ()) e.exp_loc e None attrs
          | Tstr_module mb -> walk_mb stack mb
          | Tstr_recmodule mbs -> List.iter (walk_mb stack) mbs
          | _ -> ())
        items
    and walk_mb stack mb =
      let name =
        match mb.mb_name.txt with Some n -> n | None -> fresh_anon ()
      in
      walk_me (stack @ [ name ]) mb.mb_expr
    and walk_me stack me =
      match me.mod_desc with
      | Tmod_structure s -> walk_items stack s.str_items
      | Tmod_constraint (me, _, _, _) -> walk_me stack me
      | Tmod_functor (_, me) -> walk_me stack me
      | _ -> ()
    in
    walk_items [ m.modname ] m.str.str_items
  in
  List.iter walk_module mods;
  List.rev !defs

let table defs =
  let tbl = Hashtbl.create 256 in
  List.iter (fun d -> if not (Hashtbl.mem tbl d.id) then Hashtbl.add tbl d.id d) defs;
  tbl

(* Canonical name through top-level alias chains: [let l = lock] makes
   "M.l" answer as "M.lock" (satellite: lock-under-alias). *)
let canonical tbl id =
  let rec go fuel id =
    match Hashtbl.find_opt tbl id with
    | Some d when fuel > 0 -> (
        match d.alias_of with
        | Some p ->
            let target =
              Lint_cmt.resolve_in ~mem:(Hashtbl.mem tbl) ~stack:d.stack
                (Lint_cmt.norm_components p)
            in
            if target = id then id else go (fuel - 1) target
        | None -> id)
    | _ -> id
  in
  go 8 id

(* ---- mention / call-site extraction ---- *)

(* Identifiers bound inside [e]: parameters, [let]s, match cases. *)
let bound_idents e =
  let bound = ref Ident.Set.empty in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
        bound := Ident.Set.add id !bound
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.expr it e;
  !bound

(* A mention is a resolved identifier: [`Global id] for definitions
   and dotted externals, [`Local] for function-scoped values.  A bare
   name bound inside the definition's own body is local even when a
   global of the same name exists ([?(memo = true)] next to a
   top-level [memo]). *)
let resolve_ident tbl (d : def) =
  let locals = bound_idents d.body in
  fun p ->
    let raw = Path.name p in
    if String.contains raw '.' then
      `Global
        (Lint_cmt.resolve_in ~mem:(Hashtbl.mem tbl) ~stack:d.stack
           (Lint_cmt.norm_components p))
    else
      match p with
      | Path.Pident id when Ident.Set.mem id locals -> `Local
      | _ ->
          let cand =
            Lint_cmt.resolve_in ~mem:(Hashtbl.mem tbl) ~stack:d.stack [ raw ]
          in
          if Hashtbl.mem tbl cand then `Global cand else `Local

(* All mentions in [e]; [has_local] reports whether any local value is
   referenced (rule 3). *)
let scan_mentions resolve e0 =
  let mentions = ref [] and has_local = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match resolve p with
              | `Global id -> mentions := id :: !mentions
              | `Local -> has_local := true)
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e0;
  (List.rev !mentions, !has_local)

type call = { callee : string; arg_mentions : string list; arg_local : bool }

let scan_calls resolve e0 =
  let calls = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match resolve p with
              | `Global callee ->
                  let arg_mentions, arg_local =
                    List.fold_left
                      (fun (ms, l) (_, a) ->
                        match a with
                        | None -> (ms, l)
                        | Some a ->
                            let m, hl = scan_mentions resolve a in
                            (ms @ m, l || hl))
                      ([], false) args
                  in
                  calls := { callee; arg_mentions; arg_local } :: !calls
              | `Local -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e0;
  List.rev !calls

(* ---- reachability fixpoint ---- *)

module SS = Set.Make (String)

let reachable defs tbl =
  let infos =
    List.map
      (fun d ->
        let resolve = resolve_ident tbl d in
        let mentions, _ = scan_mentions resolve d.body in
        (d, mentions, scan_calls resolve d.body))
      defs
  in
  let reach = Hashtbl.create 256 in
  let changed = ref true in
  let is_r id =
    Hashtbl.mem reach id || Lint_cmt.is_receiver (canonical tbl id)
  in
  let add id =
    if Hashtbl.mem tbl id && not (Hashtbl.mem reach id) then (
      Hashtbl.add reach id ();
      changed := true)
  in
  while !changed do
    changed := false;
    List.iter
      (fun (d, mentions, calls) ->
        if is_r d.id then List.iter add mentions;
        List.iter
          (fun c ->
            if is_r c.callee then (
              List.iter add c.arg_mentions;
              if c.arg_local && Lint_cmt.is_receiver (canonical tbl c.callee)
              then add d.id))
          calls)
      infos
  done;
  (Hashtbl.fold (fun id () acc -> SS.add id acc) reach SS.empty
   [@lint.allow "R2: folds into a set; insensitive to iteration order"])

(* ---- directory projection and config drift ---- *)

let lib_dir_of_src src =
  if String.length src > 4 && String.sub src 0 4 = "lib/" then
    match Filename.dirname src with
    | "." | "lib" -> None
    | d -> Some (String.sub d 4 (String.length d - 4))
  else None

let inferred_dirs defs reach =
  List.filter_map
    (fun d -> if SS.mem d.id reach then lib_dir_of_src d.src else None)
    defs
  |> List.sort_uniq String.compare

let config_drift defs reach =
  let inferred = inferred_dirs defs reach in
  let config = List.sort_uniq String.compare Lint_config.parallel_reachable in
  let missing = List.filter (fun d -> not (List.mem d config)) inferred in
  let stale = List.filter (fun d -> not (List.mem d inferred)) config in
  let witness dir =
    (* first reachable definition in that directory, by source order *)
    List.filter
      (fun d -> SS.mem d.id reach && lib_dir_of_src d.src = Some dir)
      defs
    |> List.sort (fun a b ->
           let c = String.compare a.src b.src in
           if c <> 0 then c
           else Int.compare a.loc.loc_start.pos_lnum b.loc.loc_start.pos_lnum)
    |> function
    | [] -> None
    | d :: _ -> Some d
  in
  List.filter_map
    (fun dir ->
      match witness dir with
      | None -> None
      | Some d ->
          Some
            (Lint_diag.of_location ~rule:"SCOPE" ~file:d.src d.loc
               (Printf.sprintf
                  "pool-reachability inference marks lib/%s as reachable from \
                   Pool callbacks (via %s), but \
                   Lint_config.parallel_reachable does not list \"%s\"; add \
                   it so R1/R7 cover this directory"
                  dir d.id dir)))
    missing
  @ List.map
      (fun dir ->
        Lint_diag.make ~rule:"SCOPE" ~file:"tools/lint/lint_config.ml" ~line:1
          ~col:0
          (Printf.sprintf
             "parallel_reachable lists \"%s\" but no definition under lib/%s \
              is inferred pool-reachable; remove the stale entry"
             dir dir))
      stale

(* ---- JSON dump (--reachability) ---- *)

let reachability_json defs reach =
  let functions =
    SS.elements reach
    |> List.filter (fun id ->
           (* surface named definitions only; <def:N> ids are noise *)
           not (String.contains id '<'))
    |> List.map (fun id -> Jsonl.String id)
  in
  let dirs =
    inferred_dirs defs reach |> List.map (fun d -> Jsonl.String d)
  in
  Jsonl.to_string
    (Jsonl.Obj
       [ ("dirs", Jsonl.List dirs); ("functions", Jsonl.List functions) ])
