(* speedup-lint: the typed checks over the `.cmt` trees dune emits.

   Every compiled module's binary annotations are loaded and the
   per-module rules run on the *typed* tree, where every identifier
   carries its resolved [Path.t] (and declaration) and every expression
   its inferred type, so an alias or an [open] cannot hide a banned
   call:

     R1  top-level mutable state, detected by resolved creator path
         (an aliased [module H = Hashtbl] does not hide a table) and
         by the typed mutability of record labels;
     R2  hash-table iteration whose order leaks into results: the
         iterators are recognised by their declaration, so aliases and
         [Hashtbl.Make] instances of any name are seen; a keyed
         [List.sort] or a commutative fold sanitises them;
     R3  lock discipline, with [Mutex.lock] resolved by path;
     R4  polymorphic operations whose argument *type* mentions a
         dedicated comparator type, plus (inside the layer that
         defines those types) bare polymorphic comparators and
         comparator lambdas comparing anything but simple scalars;
     R5  banned nondeterminism by resolved path;
     R6  structural operations whose argument type mentions an
         interned type.

   The whole-program analyses built on top of the loaded modules live
   in lint_callgraph (pool-reachability inference, config drift) and
   lint_lockset (R7).  See docs/LINT.md. *)

open Typedtree

(* ---- suppression attributes ---- *)

let allow_attr = "lint.allow"

let string_payload = function
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* The rule an [@lint.allow "RULE: reason"] payload names, if the
   payload is a string. *)
let allow_rule payload =
  Option.map
    (fun s ->
      match String.index_opt s ':' with
      | Some i -> String.trim (String.sub s 0 i)
      | None -> String.trim s)
    (string_payload payload)

(* Returns the rules suppressed by [attrs]; malformed payloads are
   reported through [report]. *)
let suppressions_of_attrs ~report (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> allow_attr then None
      else
        match allow_rule a.attr_payload with
        | Some _ as rule -> rule
        | None ->
            report a.attr_loc "lint"
              "[@lint.allow] needs a string payload, e.g. \
               [@lint.allow \"R2: commutative fold\"]";
            None)
    attrs

(* ---- loaded modules ---- *)

type modl = {
  modname : string;  (* compilation unit name, e.g. "Pool" *)
  src : string;  (* logical source path, e.g. "lib/parallel/pool.ml" *)
  scope : Lint_config.scope;
  str : structure;
}

let rec collect_cmts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = ".git" then acc
           else collect_cmts acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* Loads every .cmt under [roots].  [as_dir], when given, replaces the
   directory of each recorded source path (fixture trees compiled
   outside dune get a logical home so scoping applies).  Unreadable
   files become "lint" diagnostics rather than hard failures; modules
   compiled more than once (byte and native) are deduplicated by
   source path. *)
let load ?as_dir roots =
  let diags = ref [] in
  let seen = Hashtbl.create 64 in
  let mods =
    List.concat_map (fun r -> List.rev (collect_cmts [] r)) roots
    |> List.filter_map (fun path ->
           match Cmt_format.read_cmt path with
           | exception e ->
               diags :=
                 Lint_diag.make ~rule:"lint" ~file:path ~line:0 ~col:0
                   ("cannot read cmt: " ^ Printexc.to_string e)
                 :: !diags;
               None
           | cmt -> (
               match cmt.cmt_annots with
               | Cmt_format.Implementation str ->
                   let src =
                     match cmt.cmt_sourcefile with
                     | Some s -> s
                     | None -> cmt.cmt_modname ^ ".ml"
                   in
                   let src =
                     match as_dir with
                     | Some d -> d ^ Filename.basename src
                     | None -> src
                   in
                   if Hashtbl.mem seen src then None
                   else (
                     Hashtbl.add seen src ();
                     Some
                       {
                         modname = cmt.cmt_modname;
                         src;
                         scope = Lint_config.classify src;
                         str;
                       })
               | _ -> None))
  in
  (List.sort (fun a b -> String.compare a.src b.src) mods, !diags)

(* ---- path normalization ---- *)

(* Typed trees spell stdlib paths as "Stdlib.Mutex.lock" or (through a
   direct unit reference) "Stdlib__Mutex.lock"; normalize both to
   "Mutex.lock" so vocabulary tables stay readable. *)
let strip_unit c =
  if String.length c > 8 && String.sub c 0 8 = "Stdlib__" then
    String.capitalize_ascii (String.sub c 8 (String.length c - 8))
  else c

let norm_components p =
  match String.split_on_char '.' (Path.name p) with
  | "Stdlib" :: (_ :: _ as rest) -> List.map strip_unit rest
  | comps -> List.map strip_unit comps

let norm_name p = String.concat "." (norm_components p)

(* Is the resolved path [p] in [vocab] (lists of normalized
   components)?  Single-component entries must resolve to Stdlib's: a
   dedicated [compare] or [+] defined in the current module (or opened
   from one, as in [Frac.(a + b)]) is not the polymorphic one. *)
let path_in vocab p =
  match norm_components p with
  | [ _ ] as comps ->
      (match String.split_on_char '.' (Path.name p) with
      | [ "Stdlib"; _ ] -> true
      | _ -> false)
      && List.mem comps vocab
  | comps -> List.mem comps vocab

let stdlib_op ops = path_in (List.map (fun o -> [ o ]) ops)

(* Does [id] end with [suffix] at a dot boundary? *)
let dot_suffix id suffix =
  id = suffix
  ||
  let li = String.length id and ls = String.length suffix in
  li > ls && String.sub id (li - ls) ls = suffix && id.[li - ls - 1] = '.'

let is_pool_receiver id =
  List.exists (dot_suffix id) Lint_config.pool_callback_receivers

let is_receiver id =
  is_pool_receiver id || List.mem id Lint_config.spawn_receivers

(* Resolve a mention made inside nested modules [stack] (outermost
   first) against a whole-program definition table: try each enclosing
   module prefix from innermost to outermost, then the bare normalized
   name — which, for externals like "Mutex.lock", is already the
   canonical spelling. *)
let resolve_in ~mem ~stack comps =
  let rec go stack =
    match stack with
    | [] -> String.concat "." comps
    | _ ->
        let cand = String.concat "." (stack @ comps) in
        if mem cand then cand
        else go (List.filteri (fun i _ -> i < List.length stack - 1) stack)
  in
  go stack

(* ---- shared typed vocabulary ---- *)

type cell_kind = Ref | Table | Array | Record | Dls | Other

(* The typed view of R1's creator detection: does [e] construct
   mutable state?  Creator identifiers match by resolved path (so
   aliased modules are seen through); records consult the typed
   mutability of their labels (so aliased record types are too).
   Returns the kind and a display name. *)
let creator_kind_of_path p (vd : Types.value_description) =
  let comps = norm_components p in
  if path_in Lint_config.mutable_creators p then
    let kind =
      match comps with
      | [ "ref" ] -> Ref
      | [ "Hashtbl"; "create" ] -> Table
      | [ "Domain"; "DLS"; "new_key" ] -> Dls
      | ("Array" | "Bytes") :: _ -> Array
      | _ -> Other
    in
    Some (kind, String.concat "." comps)
  else
    match List.rev comps with
    | "create" :: "Tbl" :: _ -> Some (Table, String.concat "." comps)
    | "create" :: _
    (* a [Hashtbl.Make] instance of any name declares it in hashtbl.mli *)
      when Filename.basename vd.val_loc.loc_start.pos_fname = "hashtbl.mli" ->
        Some (Table, String.concat "." comps)
    | _ -> None

let rec creator_kind (e : expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match f.exp_desc with
      | Texp_ident (p, _, vd) -> creator_kind_of_path p vd
      | _ -> None)
  | Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((ld : Types.label_description), _) ->
            ld.lbl_mut = Asttypes.Mutable)
          fields
      then Some (Record, "record with mutable fields")
      else None
  | Texp_array (_ :: _) -> Some (Array, "array literal")
  | Texp_lazy e -> creator_kind e
  | _ -> None

(* The arguments an application actually supplies. *)
let supplied args =
  List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args

(* The head path, its declaration and the supplied arguments of an
   application of a named function. *)
let applied (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
      Some (p, vd, supplied args)
  | _ -> None

(* Does the (syntactic structure of) type [ty] mention one of [names]
   as a constructor?  Abstract types stay opaque, so there are no deep
   false positives: a [Task.t] containing simplices does not match
   "Simplex.t". *)
let rec type_mentions names ty =
  match Types.get_desc ty with
  | Tconstr (p, args, _) ->
      List.mem (norm_name p) names || List.exists (type_mentions names) args
  | Ttuple ts -> List.exists (type_mentions names) ts
  | Tarrow (_, a, b, _) -> type_mentions names a || type_mentions names b
  | Tpoly (t, _) -> type_mentions names t
  | _ -> false

(* Does any identifier in [e] satisfy [pred]? *)
let mentions pred e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) when pred p -> found := true
          | _ -> ());
          if not !found then Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let is_apply_of name e =
  match applied e with Some (p, _, _) -> norm_name p = name | None -> false

(* ---- R2 helpers ---- *)

(* Hash-table iteration, recognised by where the value is declared:
   [Hashtbl.fold], an alias ([module H = Hashtbl]) and every
   [Hashtbl.Make] instance, whatever its name, all declare their
   iterators in hashtbl.mli.  A [*.Tbl.*] path counts too. *)
let hashtbl_iteration p (vd : Types.value_description) :
    [ `Fold | `Iter ] option =
  let over_table =
    Filename.basename vd.val_loc.loc_start.pos_fname = "hashtbl.mli"
    || match List.rev (norm_components p) with
       | _ :: "Tbl" :: _ -> true
       | _ -> false
  in
  if not over_table then None
  else
    match Path.last p with
    | "fold" -> Some `Fold
    | "iter" | "to_seq" | "to_seq_keys" | "to_seq_values" -> Some `Iter
    | _ -> None

let is_poly_comparator = path_in Lint_config.poly_comparator_idents

(* Is [e] a keyed sort ([List.sort cmp …] with [cmp] free of
   polymorphic compare/hash)?  Returns the sorted operands: [] for the
   partial application [List.sort cmp]. *)
let sort_sanitizer e =
  match applied e with
  | Some (p, _, args) when path_in Lint_config.sorters p -> (
      match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
      | (_, cmp) :: rest when not (mentions is_poly_comparator cmp) ->
          Some (List.map snd rest)
      | _ -> None)
  | _ -> None

(* [fun _k _v acc -> acc <op> e] with a commutative, associative
   Stdlib operator touching the accumulator: insensitive to iteration
   order. *)
let fold_is_commutative (fn : expression) =
  let rec last_param acc (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        let id =
          match c_lhs.pat_desc with Tpat_var (id, _) -> Some id | _ -> None
        in
        last_param (Some id) c_rhs
    | _ -> (acc, e)
  in
  match last_param None fn with
  | Some (Some acc), body -> (
      let is_acc (e : expression) =
        match e.exp_desc with
        | Texp_ident (Path.Pident id, _, _) -> Ident.same id acc
        | _ -> false
      in
      match applied body with
      | Some (op, _, [ (_, a); (_, b) ]) ->
          stdlib_op Lint_config.commutative_ops op
          && (is_acc a || is_acc b)
      | _ -> false)
  | _ -> false

(* ---- R3 helpers ---- *)

let is_protect_with_unlock e =
  match applied e with
  | Some (p, _, args) ->
      norm_name p = "Fun.protect"
      && List.exists
           (fun (lbl, a) ->
             lbl = Asttypes.Labelled "finally"
             && mentions (fun p -> norm_name p = "Mutex.unlock") a)
           args
  | None -> false

(* First meaningful expression of a continuation: peels sequencing and
   let-bindings so [Mutex.lock m; let x = Fun.protect … in …] and
   [Mutex.lock m; Fun.protect …; …] both count. *)
let rec protect_follows (e : expression) =
  if is_protect_with_unlock e then true
  else
    match e.exp_desc with
    | Texp_sequence (e1, _) -> protect_follows e1
    | Texp_let (_, vbs, _) ->
        List.exists (fun vb -> is_protect_with_unlock vb.vb_expr) vbs
    | _ -> false

(* ---- R4 (dedicated layer) helpers ---- *)

(* "Simple scalar" expressions tolerated under polymorphic compare in
   the dedicated layer: the destructured-scalar idiom used inside the
   dedicated comparator definitions themselves. *)
let rec simple_scalar (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident _, _, _) | Texp_constant _ -> true
  | Texp_field (e, _, _) -> simple_scalar e
  | Texp_tuple es -> List.for_all simple_scalar es
  | _ -> (
      match applied e with
      | Some (op, _, args) ->
          stdlib_op Lint_config.arithmetic_ops op
          && List.for_all (fun (_, a) -> simple_scalar a) args
      | None -> false)

(* ---- R5 helpers ---- *)

let is_ambient_random = function
  | "Random" :: rest -> (
      match rest with "State" :: _ -> false | _ -> true)
  | _ -> false

(* ---- per-module typed checks ---- *)

type ctx = {
  m : modl;
  mutable suppressed : string list list;
  mutable file_suppressed : string list;
  mutable cleared : expression list;  (* nodes proved safe, by identity *)
  mutable findings : Lint_diag.t list;
}

let active ctx = ctx.file_suppressed @ List.concat ctx.suppressed

let report ctx ~rule ~loc msg =
  let sup = active ctx in
  if not (List.mem rule sup || List.mem "all" sup) then
    ctx.findings <-
      Lint_diag.of_location ~rule ~file:ctx.m.src loc msg :: ctx.findings

let suppressions ctx attrs =
  suppressions_of_attrs
    ~report:(fun loc rule msg ->
      ctx.findings <-
        Lint_diag.of_location ~rule ~file:ctx.m.src loc msg :: ctx.findings)
    attrs

(* Floating [@@@lint.allow] of a structure, for file scope. *)
let floating_suppressions ctx (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a when a.Parsetree.attr_name.txt = allow_attr ->
          ctx.file_suppressed <- suppressions ctx [ a ] @ ctx.file_suppressed
      | _ -> ())
    str.str_items

let clear ctx e = ctx.cleared <- e :: ctx.cleared
let is_cleared ctx e = List.memq e ctx.cleared

(* Marks the nodes a sanitizer around [e] proves safe, before the walk
   reaches them: [List.sort cmp (fold …)], [fold |> List.sort cmp]
   (which the typechecker turns into [(List.sort cmp) (fold …)]) and
   [Mutex.lock m; <protected continuation>]. *)
let premark ctx (e : expression) =
  match e.exp_desc with
  | Texp_sequence (e1, e2)
    when is_apply_of "Mutex.lock" e1 && protect_follows e2 ->
      clear ctx e1
  | Texp_apply (f, args) when sort_sanitizer f <> None ->
      List.iter (fun (_, a) -> clear ctx a) (supplied args)
  | _ -> Option.iter (List.iter (clear ctx)) (sort_sanitizer e)

let check_r2 ctx (e : expression) p vd args =
  match hashtbl_iteration p vd with
  | Some _ when is_cleared ctx e -> ()
  | Some `Fold ->
      let commutative =
        match args with (_, fn) :: _ -> fold_is_commutative fn | [] -> false
      in
      if not commutative then
        report ctx ~rule:"R2" ~loc:e.exp_loc
          (Printf.sprintf
             "%s result depends on hash iteration order; pipe it through \
              List.sort with a keyed comparator (e.g. Int.compare), make the \
              fold commutative, or suppress with [@lint.allow \"R2: reason\"]"
             (norm_name p))
  | Some `Iter ->
      report ctx ~rule:"R2" ~loc:e.exp_loc
        (Printf.sprintf
           "%s visits bindings in hash order; collect with a fold and sort \
            with a keyed comparator, or suppress with [@lint.allow \"R2: \
            reason\"]"
           (norm_name p))
  | None -> ()

(* R4/R6: polymorphic compare/hash applied at a dedicated or interned
   type. *)
let check_poly_apply ctx (e : expression) p args =
  if path_in Lint_config.poly_compare_ops p then
    let op = norm_name p in
    List.iter
      (fun (_, (a : expression)) ->
        if type_mentions Lint_config.dedicated_type_names a.exp_type then
          report ctx ~rule:"R4" ~loc:e.exp_loc
            (Printf.sprintf
               "polymorphic '%s' applied to a value whose type involves a \
                dedicated comparator type; use Simplex.compare / \
                Vertex.compare / Complex.compare / Frac.compare (or key with \
                Int.compare)"
               op)
        else if
          ctx.m.scope.Lint_config.r6
          && type_mentions Lint_config.interned_type_names a.exp_type
        then
          report ctx ~rule:"R6" ~loc:e.exp_loc
            (Printf.sprintf
               "structural '%s' applied to a value whose type involves an \
                interned type outside lib/topology; interned nodes carry \
                process-local ids, so use the module's equal / compare / hash \
                instead"
               op))
      args

(* R4 in the dedicated layer: in a lambda passed as an argument
   (comparator position), polymorphic compare/hash applied to anything
   but simple scalars. *)
let check_comparator_lambda ctx lambda =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match applied e with
          | Some (p, _, args)
            when path_in Lint_config.lambda_compare_ops p
                 && not (List.for_all (fun (_, a) -> simple_scalar a) args) ->
              report ctx ~rule:"R4" ~loc:e.exp_loc
                "polymorphic compare inside a comparator lambda in the \
                 dedicated-comparator layer; key it with Int.compare / \
                 String.compare or use the module's compare"
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it lambda

(* R4 in the dedicated layer: bare polymorphic comparators and
   comparator lambdas in argument position. *)
let check_comparator_args ctx args =
  List.iter
    (fun (_, (a : expression)) ->
      match a.exp_desc with
      | Texp_ident (p, _, _) when is_poly_comparator p ->
          report ctx ~rule:"R4" ~loc:a.exp_loc
            (Printf.sprintf
               "bare polymorphic comparator '%s' passed in the \
                dedicated-comparator layer; use Int.compare / String.compare \
                or the module's compare"
               (norm_name p))
      | Texp_function _ -> check_comparator_lambda ctx a
      | _ -> ())
    args

let check_module m =
  let ctx =
    { m; suppressed = []; file_suppressed = []; cleared = []; findings = [] }
  in
  let scope = m.scope in
  floating_suppressions ctx m.str;
  let push attrs = ctx.suppressed <- suppressions ctx attrs :: ctx.suppressed in
  let pop () = ctx.suppressed <- List.tl ctx.suppressed in
  let toplevel = ref true in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          push e.exp_attributes;
          premark ctx e;
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              let comps = norm_components p in
              if
                scope.r5
                && (List.mem comps Lint_config.banned_idents
                   || is_ambient_random comps)
                && not (List.mem comps scope.r5_allowed)
              then
                report ctx ~rule:"R5" ~loc:e.exp_loc
                  (Printf.sprintf
                     "'%s' is nondeterministic and forbidden in lib/; thread \
                      an explicit Random.State (seeded by the caller) or move \
                      the timing/IO to bin/ or bench/"
                     (String.concat "." comps))
          | _ -> ());
          (match applied e with
          | Some (p, vd, args) ->
              check_r2 ctx e p vd args;
              if norm_name p = "Mutex.lock" && not (is_cleared ctx e) then
                report ctx ~rule:"R3" ~loc:e.exp_loc
                  "Mutex.lock without a following Fun.protect ~finally:(… \
                   Mutex.unlock …) in the same function; an exception in the \
                   critical section would leave the mutex held (or use \
                   Mutex.protect)";
              check_poly_apply ctx e p args
          | None -> ());
          (match e.exp_desc with
          | Texp_apply (_, args) when scope.r4_dedicated ->
              check_comparator_args ctx (supplied args)
          | _ -> ());
          let saved = !toplevel in
          toplevel := false;
          Tast_iterator.default_iterator.expr it e;
          toplevel := saved;
          pop ());
      value_binding =
        (fun it vb ->
          push vb.vb_attributes;
          (if !toplevel && scope.r1 then
             match creator_kind vb.vb_expr with
             | Some (Record, _) ->
                 report ctx ~rule:"R1" ~loc:vb.vb_loc
                   "top-level record with mutable fields is shared mutable \
                    state in a library reachable from Pool callbacks; use \
                    Atomic fields or allowlist it"
             | Some (Array, "array literal") ->
                 report ctx ~rule:"R1" ~loc:vb.vb_loc
                   "top-level array literal is shared mutable state in a \
                    library reachable from Pool callbacks; use an immutable \
                    list/tuple or allowlist it"
             | Some (_, name) ->
                 report ctx ~rule:"R1" ~loc:vb.vb_loc
                   (Printf.sprintf
                      "top-level '%s' creates shared mutable state in a \
                       library reachable from Pool callbacks; use Atomic, \
                       guard every access with a mutex and suppress with \
                       [@lint.allow \"R1: reason\"], or move it into the \
                       function that uses it"
                      name)
             | None -> ());
          Tast_iterator.default_iterator.value_binding it vb;
          pop ());
      structure_item =
        (fun it item ->
          let attrs =
            match item.str_desc with Tstr_eval (_, attrs) -> attrs | _ -> []
          in
          push attrs;
          (match item.str_desc with
          | Tstr_value _ | Tstr_module _ | Tstr_recmodule _ ->
              (* modules re-enter "top level" for their own items *)
              toplevel := true
          | _ -> toplevel := false);
          Tast_iterator.default_iterator.structure_item it item;
          pop ());
    }
  in
  it.structure it m.str;
  List.sort_uniq Lint_diag.compare ctx.findings
