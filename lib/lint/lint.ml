(* The determinism lint. See lint.mli and DESIGN.md ("The determinism
   contract") for the ruleset. Implementation: parse each file with the
   compiler's own frontend (Parse + Ast_iterator from compiler-libs) — no
   typing, no ppx, no new dependencies — and pattern-match forbidden
   identifier paths syntactically. That keeps the pass fast (<5s over the
   whole tree) and robust to partial builds, at the cost of not seeing
   through aliases; the module_expr check below closes the obvious
   laundering hole ([module U = Unix], [open Random]).

   R5 is the one non-local rule within a file: a small abstract
   interpretation over each function body that tracks, per syntactic
   mutable location, whether the code's knowledge of it predates a yield
   point. See "the R5 pass" below. R7 and R9 are the cross-file rules: R7
   checks interfaces against the references every implementation makes
   (see "R7: dead exports"), R9 the protocol variant against the
   constructors every other implementation builds and matches (see "R9:
   one-sided protocol messages"). *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | _ -> None

let explain = function
  | R1 ->
      "R1: no wall-clock or ambient randomness.\n\
       Unix.*, Sys.time and Stdlib.Random read state the simulator does not\n\
       control, so two runs of the same seed diverge and a failing seed no\n\
       longer reproduces. Use Engine.now for time and a seeded\n\
       Fdb_util.Det_rng stream (Engine.fork_rng) for randomness. The only\n\
       file exempt is lib/util/det_rng.ml itself; code that times its own\n\
       CPU cost (bench helpers, the lint driver's runtime budget) wraps\n\
       Sys.time in one cpu () helper under a reasoned per-line suppression."
  | R2 ->
      "R2: no raw Hashtbl enumeration outside lib/util.\n\
       Hashtbl.iter/fold/to_seq order depends on the hash of the keys and\n\
       the table's internal resize history — it is stable within one binary\n\
       but it is not part of any contract, and any simulation decision made\n\
       in that order is a latent nondeterminism bug. Go through\n\
       Fdb_util.Det_tbl, whose enumeration is key-sorted. Point lookups\n\
       (find_opt/replace/mem) on plain Hashtbl remain fine."
  | R3 ->
      "R3: every ignore must carry a type annotation.\n\
       ignore (f x) silently discards whatever f returns — including a\n\
       bool from Future.try_fulfill, where a dropped false is a lost\n\
       wakeup, or a Future.t whose error side-channel vanishes. Write\n\
       ignore (f x : bool) so the dropped type is visible in review and\n\
       breaks loudly when a signature changes."
  | R4 ->
      "R4: no print_*/Printf.printf/Format.printf/exit in library code.\n\
       Library output must flow through Trace (simulation-visible, part of\n\
       the trace checksum) or a formatter handed in by the caller; stdout\n\
       writes and process exit belong to bin/ drivers only."
  | R5 ->
      "R5: no stale state across a yield (cross-yield atomicity).\n\
       Every let*/let+/Future.bind/Future.map suspends the actor; any other\n\
       actor may run and mutate shared state before the continuation\n\
       resumes. Writing a mutable location whose last read happened before\n\
       the yield acts on a stale snapshot — the shape of the historical\n\
       commit_flush re-entrancy race — and so does using a local that\n\
       captured a mutable location's value across the yield. Re-read the\n\
       location after the yield (the re-read idiom), restructure so the\n\
       decision and the write sit on the same side of the yield, or\n\
       suppress with a reason stating the invariant that makes the stale\n\
       value safe (e.g. a single-writer guard held across the yield)."
  | R6 ->
      "R6: no lost futures (future lifecycle).\n\
       A discarded Future.t is an actor whose failures vanish and whose\n\
       pending waiters can leak: ignore (e : _ Future.t), bare\n\
       Future.ignore_result, and statement- or let-_-position discards of\n\
       known future-returning calls are all flagged. Await the future, or\n\
       fire-and-forget it with the approved idiom Future.detach ~name\n\
       (failures become future_detached_error trace events and are tallied\n\
       by the runtime sanitizer) or Engine.spawn for whole actors. The\n\
       residue the static rule cannot see is caught at runtime:\n\
       fdb_sim swarm --check-leaks fails on promises still pending at\n\
       simulation end."
  | R7 ->
      "R7: no dead exports.\n\
       A val in a lib/ interface that no .ml under lib bin bench test\n\
       examples references (other than its own module's .ml) is surface\n\
       nothing uses: it costs review and refactoring effort and often keeps\n\
       state alive that only it reads. Delete it; the compiler's unused-value\n\
       warning then finds the definitions it alone kept alive. References\n\
       are resolved from the untyped AST: qualified paths (library wrapper\n\
       included), module aliases, and bare names in a file that opens the\n\
       module all count; record fields and labels do not. A val that must\n\
       stay without a caller (client or layer API) carries a reasoned\n\
       suppression on its val line."
  | R8 ->
      "R8: no module-level mutable state in library code.\n\
       A structure-level let (nested modules included) bound to ref,\n\
       Hashtbl.create, Det_tbl.create, Array.make, Queue.create,\n\
       Buffer.create or Atomic.make is one cell shared by every simulation\n\
       the process runs: a run leaks state into the next, and seeds cannot\n\
       run side by side. A run's state belongs in its record (Run.t, which\n\
       Engine.run creates); a role's state belongs in the value it creates.\n\
       The same call inside a function makes a fresh cell per call and is\n\
       fine. A cell that must stay global carries a reasoned suppression."
  | R9 ->
      "R9: no one-sided protocol messages.\n\
       Every constructor of the request type [type _ req] in\n\
       lib/core/message.ml must be built by some expression and matched by\n\
       some pattern outside that file. A request nothing builds is one no\n\
       role sends, so its handler arm is dead; a request nothing matches is\n\
       one no role serves, so every caller times out. Either way it is\n\
       protocol surface that costs review and hides dead code: delete it.\n\
       Likewise every field of every record the file declares (answer\n\
       records and the requests' inline records alike) must be read outside\n\
       it, by a record pattern or a field access: a field nothing reads is\n\
       state the sender computes and ships for nobody. A protocol file that\n\
       declares no [type _ req] is itself a diagnostic, so the rule cannot\n\
       pass by checking nothing. Constructor uses are counted from the\n\
       untyped AST as qualified paths (Message.X, library wrapper\n\
       included), so no file may open Message; field reads are counted by\n\
       field name. A constructor or field that must stay one-sided carries\n\
       a reasoned suppression on its line."

type diagnostic = {
  d_file : string;
  d_line : int;
  d_col : int;
  d_rule : rule option;
  d_msg : string;
}

let pp_diagnostic fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" d.d_file d.d_line d.d_col
    (match d.d_rule with Some r -> rule_name r | None -> "lint")
    d.d_msg

(* Machine-readable rendering (fdb_lint --json): one object per
   diagnostic, keys file/line/col/rule/msg, emitted as a JSON array. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let diagnostic_to_json d =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"msg\":\"%s\"}"
    (json_escape d.d_file) d.d_line d.d_col
    (match d.d_rule with Some r -> rule_name r | None -> "lint")
    (json_escape d.d_msg)

let diagnostics_to_json diags =
  match diags with
  | [] -> "[]"
  | _ ->
      "[\n  " ^ String.concat ",\n  " (List.map diagnostic_to_json diags) ^ "\n]"

(* ---- paths and rule applicability ---- *)

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let applies rule path =
  match rule with
  | R1 -> path <> "lib/util/det_rng.ml"
  | R2 -> not (String.starts_with ~prefix:"lib/util/" path)
  | R3 -> true
  | R4 -> String.starts_with ~prefix:"lib/" path
  (* The actor model lives under lib/; drivers and benches run Engine.run
     at top level and own their futures explicitly. *)
  | R5 | R6 | R7 | R8 | R9 -> String.starts_with ~prefix:"lib/" path

(* ---- suppression comments ----
   A comment of the form "fdb-lint" ":" "allow RULE -- reason" (spelled out
   here so the scanner does not match its own source) suppresses RULE on
   its own line; when the comment stands alone on a line it also covers
   the next line. The
   reason is mandatory: a suppression that cannot justify itself is a
   diagnostic, not an exemption. A suppression that no longer suppresses
   anything is also a diagnostic (the stale-suppression audit): dead
   exemptions rot into blanket ones as code moves underneath them. *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* Built by concatenation so the scanner does not match its own source. *)
let marker = "fdb-lint" ^ ":"

type suppression = {
  s_comment_line : int;  (* where the allow comment sits *)
  s_rule : rule;
  s_lines : int list;  (* source lines it covers *)
  mutable s_used : bool;
}

let scan_suppressions ~path src =
  let supp = ref [] and errs = ref [] in
  let err line msg =
    errs :=
      { d_file = path; d_line = line; d_col = 0; d_rule = None; d_msg = msg }
      :: !errs
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match find_sub line marker with
      | None -> ()
      | Some idx -> (
          let rest =
            String.sub line
              (idx + String.length marker)
              (String.length line - idx - String.length marker)
          in
          (* strip the comment closer, if on the same line *)
          let rest =
            match find_sub rest "*)" with
            | Some j -> String.sub rest 0 j
            | None -> rest
          in
          let words =
            String.split_on_char ' ' rest |> List.filter (fun w -> w <> "")
          in
          match words with
          | "allow" :: rule_word :: reason -> (
              match rule_of_string rule_word with
              | None ->
                  err lineno
                    ("fdb-lint suppression names unknown rule \"" ^ rule_word
                   ^ "\"")
              | Some rule ->
                  (* drop a leading "--" separator, then require substance *)
                  let reason =
                    match reason with "--" :: r -> r | r -> r
                  in
                  if reason = [] then
                    err lineno
                      ("fdb-lint suppression for " ^ rule_name rule
                     ^ " has no reason; write (* " ^ marker ^ " allow "
                     ^ rule_name rule ^ " -- why *)")
                  else begin
                    let standalone =
                      match find_sub line "(*" with
                      | Some j when j < idx ->
                          String.trim (String.sub line 0 j) = ""
                      | _ -> false
                    in
                    let covered =
                      if standalone then [ lineno; lineno + 1 ] else [ lineno ]
                    in
                    supp :=
                      {
                        s_comment_line = lineno;
                        s_rule = rule;
                        s_lines = covered;
                        s_used = false;
                      }
                      :: !supp
                  end)
          | _ ->
              err lineno
                ("malformed fdb-lint comment; write (* " ^ marker
               ^ " allow RULE -- reason *)")))
    lines;
  (!supp, !errs)

(* ---- the R1-R4 AST pass ---- *)

(* Drop the library wrapper: Fdb_util.Det_rng.v and Det_rng.v are one path. *)
let unwrap = function
  | lib :: rest when String.starts_with ~prefix:"Fdb_" lib -> rest
  | p -> p

let strip_stdlib p =
  if String.starts_with ~prefix:"Stdlib." p then
    String.sub p 7 (String.length p - 7)
  else p

let strip_sim p =
  if String.starts_with ~prefix:"Fdb_sim." p then
    String.sub p 8 (String.length p - 8)
  else p

let r4_prints =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
  ]

let check_ident violation loc lid =
  let p = String.concat "." (Longident.flatten lid) in
  let bare = strip_stdlib p in
  (* R1 *)
  if String.starts_with ~prefix:"Unix." bare then
    violation R1 loc
      (p ^ " reads OS state; use Engine.now / Engine.sleep / Fdb_sim.Disk")
  else if bare = "Sys.time" then
    violation R1 loc "Sys.time is wall-clock; use Engine.now"
  else if String.starts_with ~prefix:"Random." bare then
    violation R1 loc
      (p ^ " is unseeded ambient randomness; use a Fdb_util.Det_rng stream \
         (Engine.fork_rng)");
  (* R2 *)
  (match bare with
  | "Hashtbl.iter" | "Hashtbl.fold" | "Hashtbl.to_seq" | "Hashtbl.to_seq_keys"
  | "Hashtbl.to_seq_values" ->
      violation R2 loc
        (p ^ " enumerates in hash order; use Fdb_util.Det_tbl (key-sorted)")
  | _ -> ());
  (* R6: the unapproved detach — swallows the error side-channel. *)
  (match strip_sim bare with
  | "Future.ignore_result" ->
      violation R6 loc
        (p ^ " swallows failures; use Future.detach ~name (traces \
         future_detached_error) or await the future")
  | _ -> ());
  (* R4 *)
  if List.mem bare r4_prints then
    violation R4 loc (p ^ " writes to stdout from library code; use Trace")
  else
    match bare with
    | "Printf.printf" | "Format.printf" ->
        violation R4 loc (p ^ " writes to stdout from library code; use Trace \
           or take a formatter")
    | "exit" ->
        violation R4 loc
          "exit from library code; return an error and let bin/ decide"
    | _ -> ()

let is_ignore_ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident "ignore"; _ }
  | Pexp_ident { txt = Ldot (Lident "Stdlib", "ignore"); _ } ->
      true
  | _ -> false

(* Paths whose application is known to produce a Future.t — the set R6 can
   convict syntactically when the result is discarded. (A discarded future
   in statement position is usually already a compile error via warning 10;
   these catch the laundered forms: ignore, let _ = .) *)
let future_returning =
  [
    "Future.bind";
    "Future.map";
    "Future.all";
    "Future.all_unit";
    "Future.join2";
    "Future.race";
    "Future.catch";
    "Future.protect";
    "Engine.sleep";
    "Engine.sleep_until";
    "Engine.timeout";
    "Engine.cpu";
    "Context.rpc";
    "Network.call";
  ]

let head_is_future_call (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let p = strip_sim (String.concat "." (Longident.flatten txt)) in
      if List.mem p future_returning then Some p else None
  | _ -> None

(* Does this type annotation name a future? ('a Future.t, both qualified
   and through Fdb_sim.) *)
let rec is_future_type (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
      match List.rev (Longident.flatten txt) with
      | "t" :: "Future" :: _ -> true
      | _ -> false)
  | Ptyp_alias (t, _) -> is_future_type t
  | _ -> false

let discard_msg p =
  p
  ^ " returns a future that is discarded here; await it or detach with \
     Future.detach ~name (failures trace as future_detached_error)"

let walk violation (ast : Parsetree.structure) =
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident violation loc txt
    | Pexp_apply (fn, [ (Nolabel, arg) ]) when is_ignore_ident fn -> (
        match arg.pexp_desc with
        | Pexp_constraint (_, ty) ->
            if is_future_type ty then
              violation R6 e.pexp_loc
                "ignore of a Future.t: the error side-channel vanishes and \
                 pending waiters can leak; use Future.detach ~name or await it"
        | _ ->
            violation R3 e.pexp_loc
              "ignore without a type annotation; write ignore (e : ty) so the \
               dropped value is visible";
            (match head_is_future_call arg with
            | Some p -> violation R6 e.pexp_loc (discard_msg p)
            | None -> ()))
    | Pexp_sequence (e1, _) -> (
        match head_is_future_call e1 with
        | Some p -> violation R6 e1.pexp_loc (discard_msg p)
        | None -> ())
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_any -> (
                match head_is_future_call vb.pvb_expr with
                | Some p -> violation R6 vb.pvb_loc (discard_msg p)
                | None -> ())
            | _ -> ())
          vbs
    | _ -> ());
    default_iterator.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> (
        match Longident.flatten txt with
        | "Unix" :: _ ->
            violation R1 loc "aliasing/opening Unix smuggles OS state in"
        | "Random" :: _ ->
            violation R1 loc
              "aliasing/opening Stdlib.Random smuggles ambient randomness in"
        | _ -> ())
    | _ -> ());
    default_iterator.module_expr self m
  in
  let it = { default_iterator with expr; module_expr } in
  it.structure it ast

(* ---- the R5 pass: cross-yield atomicity ----

   A per-function-body abstract interpretation. Yield points are let*/let+
   (and their and*s) and literal Future.bind/Future.map continuations —
   everywhere the actor suspends and other actors may run. Mutable
   locations are tracked syntactically: a ref deref/assignment whose ref is
   a named path ([!r], [r := e], module-level refs included), and a record
   field get/set rooted at a named path ([t.kcv], [t.kcv <- v]).

   Per location the state is one of
     Lclean - no knowledge (never read, or last event was our own write)
     Lread  - read since the last yield: knowledge is current
     Lstale - read at some point, but a yield has happened since
   and the two convictions are
     (a) writing a location whose state is Lstale: the write acts on a
         pre-yield snapshot (the commit_flush-race shape), and
     (b) using a local [let v = t.q in] that captured a location's value
         before a yield, after the yield, when the location has not been
         re-read — the captured-snapshot shape.
   Reads are never flagged: a post-yield read IS the re-read idiom.

   Control flow: branches are analyzed from the same incoming state and
   merged pointwise toward the stalest answer; Future.catch/protect bodies
   are inlined sequentially (the handler runs after whatever prefix of the
   protected body executed); other lambdas are separate function bodies —
   except bind/map continuations, which continue the suspended actor and
   are analyzed inline after the yield. *)

module SMap = Map.Make (String)

type lstatus = Lclean | Lread | Lstale

type capture = { cap_loc : string; cap_line : int; cap_stale : bool; cap_reported : bool }

type r5_state = { locs : lstatus SMap.t; caps : capture SMap.t }

let r5_empty = { locs = SMap.empty; caps = SMap.empty }

let lrank = function Lclean -> 0 | Lread -> 1 | Lstale -> 2

let lmax a b = if lrank a >= lrank b then a else b

let r5_merge a b =
  {
    locs =
      SMap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (lmax x y)
          | Some x, None | None, Some x -> Some x
          | None, None -> None)
        a.locs b.locs;
    caps =
      SMap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y when x.cap_loc = y.cap_loc ->
              Some
                {
                  x with
                  cap_stale = x.cap_stale || y.cap_stale;
                  cap_reported = x.cap_reported || y.cap_reported;
                }
          | Some x, None | None, Some x -> Some x
          | _ -> None)
        a.caps b.caps;
  }

let r5_yield st =
  {
    locs = SMap.map (function Lread -> Lstale | s -> s) st.locs;
    caps = SMap.map (fun c -> { c with cap_stale = true }) st.caps;
  }

(* The named path of an expression, if it is one: x, M.x, t.field,
   t.a.field (field labels may be module-qualified). *)
let rec named_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | Pexp_field (b, { txt; _ }) -> (
      match named_path b with
      | Some p -> Some (p ^ "." ^ Longident.last txt)
      | None -> None)
  | Pexp_constraint (e, _) -> named_path e
  | _ -> None

(* The location captured by a let-binding RHS, if the RHS is a bare read
   of a mutable location: a field get or a ref deref. *)
let rec capture_key (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_field (_, _) -> named_path e
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ },
        [ (Asttypes.Nolabel, arg) ] ) ->
      named_path arg
  | Pexp_constraint (e, _) -> capture_key e
  | _ -> None

let rec pattern_vars acc (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pattern_vars (txt :: acc) p
  | Ppat_tuple ps -> List.fold_left pattern_vars acc ps
  | Ppat_construct (_, Some (_, p)) -> pattern_vars acc p
  | Ppat_variant (_, Some p) -> pattern_vars acc p
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pattern_vars acc p) acc fields
  | Ppat_array ps -> List.fold_left pattern_vars acc ps
  | Ppat_or (a, b) -> pattern_vars (pattern_vars acc a) b
  | Ppat_constraint (p, _) -> pattern_vars acc p
  | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p -> pattern_vars acc p
  | _ -> acc

(* Binding a name starts a fresh location: captures under that name die,
   and so does tracked state for locations rooted at it (a rebound ref or
   record is a different object — [let candidate = ref None in …] twice in
   one body must not connect the two). *)
let shadow st pat =
  let vars = pattern_vars [] pat in
  let rooted_at v key =
    key = v || String.starts_with ~prefix:(v ^ ".") key
  in
  {
    locs =
      SMap.filter (fun key _ -> not (List.exists (fun v -> rooted_at v key) vars)) st.locs;
    caps = List.fold_left (fun caps v -> SMap.remove v caps) st.caps vars;
  }

let fun_key (e : Parsetree.expression) =
  let l = e.pexp_loc in
  (l.loc_start.Lexing.pos_cnum, l.loc_end.Lexing.pos_cnum)

let r5_pass violation (ast : Parsetree.structure) =
  (* bind/map continuations analyzed inline, so the unit scan must not
     start a fresh analysis for them. Point lookups only (R2-clean). *)
  let consumed : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let read st key = { st with locs = SMap.add key Lread st.locs } in
  let write st key (loc : Location.t) =
    (match SMap.find_opt key st.locs with
    | Some Lstale ->
        violation R5 loc
          ("cross-yield write: " ^ key
         ^ " was last read before a yield; other actors may have changed it \
            while this one was suspended — re-read it after the yield or \
            restructure (commit_flush-race shape)")
    | _ -> ());
    { st with locs = SMap.add key Lclean st.locs }
  in
  let use_var st v (loc : Location.t) =
    match SMap.find_opt v st.caps with
    | Some c
      when c.cap_stale && (not c.cap_reported)
           && SMap.find_opt c.cap_loc st.locs <> Some Lread ->
        violation R5 loc
          ("stale capture: " ^ v ^ " holds the value of " ^ c.cap_loc
         ^ " read before a yield (line "
          ^ string_of_int c.cap_line
          ^ "); re-read " ^ c.cap_loc ^ " after the yield instead");
        { st with caps = SMap.add v { c with cap_reported = true } st.caps }
    | _ -> st
  in
  let is_yield_op op = op = "let*" || op = "let+" in
  let rec unit_body (body : Parsetree.expression) =
    ignore (go r5_empty body : r5_state)
  (* A let-binding RHS that is itself a letop ([let f = let* x = a in … in])
     only CONSTRUCTS a future — the enclosing function does not suspend.
     Analyze the continuation in the post-yield state (its own accesses are
     still checked) but flow the pre-yield state onward, exactly as for a
     literal Future.bind. *)
  and go_rhs st (e : Parsetree.expression) : r5_state =
    match e.pexp_desc with
    | Pexp_letop { let_; ands; body } when is_yield_op let_.pbop_op.txt ->
        let st1 = go st let_.pbop_exp in
        let st1 =
          List.fold_left
            (fun st (a : Parsetree.binding_op) -> go st a.pbop_exp)
            st1 ands
        in
        let stc = shadow (r5_yield st1) let_.pbop_pat in
        let stc =
          List.fold_left
            (fun st (a : Parsetree.binding_op) -> shadow st a.pbop_pat)
            stc ands
        in
        ignore (go stc body : r5_state);
        st1
    | _ -> go st e
  and go st (e : Parsetree.expression) : r5_state =
    match e.pexp_desc with
    (* -- lambdas: separate units unless consumed as continuations -- *)
    | Pexp_fun (_, default, pat, body) ->
        Hashtbl.replace consumed (fun_key e) ();
        (match default with Some d -> ignore (go st d : r5_state) | None -> ());
        ignore (pat : Parsetree.pattern);
        unit_body body;
        st
    | Pexp_function cases ->
        Hashtbl.replace consumed (fun_key e) ();
        List.iter (fun (c : Parsetree.case) -> unit_body c.pc_rhs) cases;
        st
    (* -- yields -- *)
    | Pexp_letop { let_; ands; body } ->
        let st = go st let_.pbop_exp in
        let st =
          List.fold_left (fun st (a : Parsetree.binding_op) -> go st a.pbop_exp) st ands
        in
        let st = if is_yield_op let_.pbop_op.txt then r5_yield st else st in
        let st = shadow st let_.pbop_pat in
        let st =
          List.fold_left (fun st (a : Parsetree.binding_op) -> shadow st a.pbop_pat) st ands
        in
        go st body
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when (let p = strip_sim (String.concat "." (Longident.flatten txt)) in
            p = "Future.bind" || p = "Future.map")
           && List.length args = 2 -> (
        match args with
        | [ (Asttypes.Nolabel, fut); (Asttypes.Nolabel, cont) ] -> (
            let st1 = go st fut in
            (* The continuation resumes after a suspension: analyze it in
               the post-yield state. Code after the whole bind/map runs
               before the continuation does, so the onward state is the
               pre-yield one. *)
            match cont.pexp_desc with
            | Pexp_fun (_, _, pat, body) ->
                Hashtbl.replace consumed (fun_key cont) ();
                let stc = shadow (r5_yield st1) pat in
                ignore (go stc body : r5_state);
                st1
            | _ -> ignore (go st1 cont : r5_state); st1)
        | _ -> List.fold_left (fun st (_, a) -> go st a) st args)
    (* -- catch/protect: bodies inlined sequentially -- *)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when (let p = strip_sim (String.concat "." (Longident.flatten txt)) in
            p = "Future.catch" || p = "Future.protect") ->
        let inline st (arg : Parsetree.expression) =
          match arg.pexp_desc with
          | Pexp_fun (_, _, pat, body) ->
              Hashtbl.replace consumed (fun_key arg) ();
              go (shadow st pat) body
          | _ -> go st arg
        in
        List.fold_left (fun st (_, a) -> inline st a) st args
    (* -- mutable-location events -- *)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
          [ (Asttypes.Nolabel, lhs); (Asttypes.Nolabel, rhs) ] ) -> (
        let st = go st rhs in
        match named_path lhs with
        | Some key -> write st key e.pexp_loc
        | None -> go st lhs)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ },
          [ (Asttypes.Nolabel, arg) ] ) -> (
        match named_path arg with
        | Some key -> read st key
        | None -> go st arg)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident ("incr" | "decr"); _ }; _ },
          [ (Asttypes.Nolabel, arg) ] ) -> (
        (* read-modify-write at one point in time: the read refreshes. *)
        match named_path arg with
        | Some key -> write (read st key) key e.pexp_loc
        | None -> go st arg)
    | Pexp_field (b, _) -> (
        match named_path e with
        | Some key -> read (go st b) key
        | None -> go st b)
    | Pexp_setfield (b, { txt; _ }, rhs) -> (
        let st = go st rhs in
        let st = go st b in
        match named_path b with
        | Some p -> write st (p ^ "." ^ Longident.last txt) e.pexp_loc
        | None -> st)
    | Pexp_ident { txt = Lident v; _ } -> use_var st v e.pexp_loc
    | Pexp_ident _ -> st
    (* -- bindings: captures and shadowing -- *)
    | Pexp_let (rf, vbs, body) ->
        let st =
          List.fold_left
            (fun st (vb : Parsetree.value_binding) ->
              let st = go_rhs st vb.pvb_expr in
              let st = shadow st vb.pvb_pat in
              match (rf, vb.pvb_pat.ppat_desc, capture_key vb.pvb_expr) with
              | Asttypes.Nonrecursive, Ppat_var { txt = v; _ }, Some key ->
                  {
                    st with
                    caps =
                      SMap.add v
                        {
                          cap_loc = key;
                          cap_line = vb.pvb_loc.loc_start.Lexing.pos_lnum;
                          cap_stale = false;
                          cap_reported = false;
                        }
                        st.caps;
                  }
              | _ -> st)
            st vbs
        in
        go st body
    (* -- control flow -- *)
    | Pexp_ifthenelse (c, t_, e_) ->
        let st0 = go st c in
        let st1 = go st0 t_ in
        let st2 = match e_ with Some e_ -> go st0 e_ | None -> st0 in
        r5_merge st1 st2
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let st0 = go st scrut in
        let branches =
          List.map
            (fun (c : Parsetree.case) ->
              let stc = shadow st0 c.pc_lhs in
              let stc =
                match c.pc_guard with Some g -> go stc g | None -> stc
              in
              go stc c.pc_rhs)
            cases
        in
        List.fold_left r5_merge st0 branches
    | Pexp_sequence (a, b) -> go (go st a) b
    | Pexp_while (c, body) ->
        let st = go st c in
        go st body
    | Pexp_for (pat, lo, hi, _, body) ->
        let st = go (go st lo) hi in
        go (shadow st pat) body
    (* -- plain traversal -- *)
    | Pexp_apply (fn, args) ->
        let st = go st fn in
        List.fold_left (fun st (_, a) -> go st a) st args
    | Pexp_tuple es | Pexp_array es ->
        List.fold_left go st es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> go st e
    | Pexp_construct (_, None) | Pexp_variant (_, None) -> st
    | Pexp_record (fields, base) ->
        let st = match base with Some b -> go st b | None -> st in
        List.fold_left (fun st (_, v) -> go st v) st fields
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> go st e
    | Pexp_assert e | Pexp_lazy e -> go st e
    | Pexp_open (_, e) | Pexp_newtype (_, e) -> go st e
    | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) -> go st e
    | _ -> st
  in
  (* Every lambda body not consumed as a continuation is one analysis
     unit; the iterator finds them all (including inside modules). *)
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_fun (_, _, _, body) ->
        if not (Hashtbl.mem consumed (fun_key e)) then begin
          Hashtbl.replace consumed (fun_key e) ();
          unit_body body
        end
    | Pexp_function cases ->
        if not (Hashtbl.mem consumed (fun_key e)) then begin
          Hashtbl.replace consumed (fun_key e) ();
          List.iter (fun (c : Parsetree.case) -> unit_body c.pc_rhs) cases
        end
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.structure it ast

(* ---- R8: module-level mutable state ----
   Only the right-hand side of a structure-level let is checked, so a cell
   made inside a function (one per call) is fine. *)

let r8_makers =
  [
    "ref";
    "Hashtbl.create";
    "Det_tbl.create";
    "Array.make";
    "Queue.create";
    "Buffer.create";
    "Atomic.make";
  ]

let rec r8_cell (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> r8_cell e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let p = strip_stdlib (String.concat "." (unwrap (Longident.flatten txt))) in
      if List.mem p r8_makers then Some p else None
  | _ -> None

let rec r8_structure violation (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match r8_cell vb.pvb_expr with
              | Some p ->
                  violation R8 vb.pvb_loc
                    (p ^ " at module level is one cell shared by every run in the \
                     process; keep it in the run's record or in the value that owns it")
              | None -> ())
            vbs
      | Pstr_module mb -> r8_module violation mb.pmb_expr
      | _ -> ())
    items

and r8_module violation (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Pmod_structure items -> r8_structure violation items
  | Pmod_constraint (m, _) | Pmod_functor (_, m) -> r8_module violation m
  | _ -> ()

(* [parser] is Parse.implementation or Parse.interface. *)
let parse parser ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match parser lexbuf with
  | ast -> Ok ast
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error e ->
            (Syntaxerr.location_of_error e).loc_start.Lexing.pos_lnum
        | _ -> 1
      in
      Error
        {
          d_file = path;
          d_line = line;
          d_col = 0;
          d_rule = None;
          d_msg = "parse error: " ^ Printexc.to_string exn;
        }

(* Run [check violation] over one file with its suppressions applied, then
   the stale-suppression audit. [check] returns any tooling diagnostics (a
   parse error). *)
let with_suppressions ~path src check =
  let diags = ref [] in
  let supp, supp_errs = scan_suppressions ~path src in
  List.iter (fun d -> diags := d :: !diags) supp_errs;
  let violation rule (loc : Location.t) msg =
    if applies rule path then begin
      let line = loc.loc_start.Lexing.pos_lnum in
      let col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol in
      match
        List.find_opt
          (fun s -> s.s_rule = rule && List.mem line s.s_lines)
          supp
      with
      | Some s -> s.s_used <- true
      | None ->
          diags :=
            { d_file = path; d_line = line; d_col = col; d_rule = Some rule; d_msg = msg }
            :: !diags
    end
  in
  List.iter (fun d -> diags := d :: !diags) (check violation);
  (* The stale-suppression audit: an allow comment that suppressed nothing
     is dead — and will silently cover whatever lands on that line next. *)
  List.iter
    (fun s ->
      if not s.s_used then
        diags :=
          {
            d_file = path;
            d_line = s.s_comment_line;
            d_col = 0;
            d_rule = None;
            d_msg =
              "stale suppression: allow " ^ rule_name s.s_rule
              ^ " no longer suppresses any diagnostic; remove it";
          }
          :: !diags)
    supp;
  List.sort
    (fun a b -> compare (a.d_line, a.d_col, a.d_msg) (b.d_line, b.d_col, b.d_msg))
    !diags

let lint_source ~path src =
  let path = normalize path in
  with_suppressions ~path src (fun violation ->
      match parse Parse.implementation ~path src with
      | Error d -> [ d ]
      | Ok ast ->
          walk violation ast;
          r5_pass violation ast;
          r8_structure violation ast;
          [])

(* ---- R7: dead exports ----

   One pass collects, per implementation file, the value paths it names
   and the modules it opens; a val in a lib/ interface is dead when no
   file but its own module's .ml names it. Resolution is syntactic and
   errs toward "referenced": module aliases and opens are file-wide
   whatever their scope, and a path also matches through any module the
   file opens (so a local variable that shares a val's name in such a file
   keeps the val alive). *)

let r7_reference_roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

module SSet = Set.Make (String)

(* The modules a file opens (resolved) and the value paths it names. *)
type refs = { r_opens : string list list; r_paths : SSet.t }

let rec flatten_lid acc = function
  | Longident.Lident s -> s :: acc
  | Ldot (l, s) -> flatten_lid (s :: acc) l
  | Lapply _ -> acc

let flatten_lid lid = flatten_lid [] lid

let references (ast : Parsetree.structure) =
  let aliases = Hashtbl.create 8 and opens = ref [] and paths = ref [] in
  let add_open (m : Parsetree.module_expr) =
    match m.pmod_desc with
    | Pmod_ident { txt; _ } -> opens := flatten_lid txt :: !opens
    | _ -> ()
  in
  let add_alias name (m : Parsetree.module_expr) =
    match (name, m.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (flatten_lid txt)
    | _ -> ()
  in
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> paths := flatten_lid txt :: !paths
    | Pexp_letop { let_; ands; _ } ->
        List.iter
          (fun (b : Parsetree.binding_op) -> paths := [ b.pbop_op.txt ] :: !paths)
          (let_ :: ands)
    | Pexp_open (o, _) -> add_open o.popen_expr
    | Pexp_letmodule ({ txt; _ }, m, _) -> add_alias txt m
    | _ -> ());
    default_iterator.expr self e
  in
  let structure_item self (item : Parsetree.structure_item) =
    (match item.pstr_desc with
    | Pstr_open o -> add_open o.popen_expr
    | Pstr_module mb -> add_alias mb.pmb_name.txt mb.pmb_expr
    | _ -> ());
    default_iterator.structure_item self item
  in
  let it = { default_iterator with expr; structure_item } in
  it.structure it ast;
  (* Bounded, since [module Error = Error] is an alias of itself. *)
  let rec resolve depth = function
    | m :: rest when depth > 0 -> (
        match Hashtbl.find_opt aliases m with
        | Some target -> resolve (depth - 1) (unwrap target @ rest)
        | None -> unwrap (m :: rest))
    | p -> unwrap p
  in
  let resolve = resolve 4 in
  (* A later open may name a module relative to an earlier one. *)
  let opens = List.filter (fun o -> o <> []) (List.map resolve !opens) in
  {
    r_opens = opens @ List.concat_map (fun m -> List.map (fun o -> m @ o) opens) opens;
    r_paths =
      List.fold_left
        (fun set p -> SSet.add (String.concat "." (resolve p)) set)
        SSet.empty !paths;
  }

(* Does a file with these references name [vpath]: directly, or by its
   remainder under one of the file's opens? *)
let rec drop_prefix prefix p =
  match (prefix, p) with
  | [], rest -> Some rest
  | m :: prefix, m' :: rest when m = m' -> drop_prefix prefix rest
  | _ -> None

let mentions r vpath =
  SSet.mem (String.concat "." vpath) r.r_paths
  || List.exists
       (fun o ->
         match drop_prefix o vpath with
         | Some (_ :: _ as rest) -> SSet.mem (String.concat "." rest) r.r_paths
         | _ -> false)
       r.r_opens

(* Every val an interface exports, with its module path: top level and
   inside nested [module M : sig … end]s. *)
let rec exported prefix acc (items : Parsetree.signature) =
  List.fold_left
    (fun acc (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd -> (prefix @ [ vd.pval_name.txt ], vd.pval_loc) :: acc
      | Psig_module
          { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
        ->
          exported (prefix @ [ m ]) acc s
      | _ -> acc)
    acc items

let dead_exports ~interfaces ~implementations =
  let refs =
    List.filter_map
      (fun (path, src) ->
        match parse Parse.implementation ~path src with
        | Ok ast -> Some (normalize path, references ast)
        | Error _ -> None)
      implementations
  in
  List.concat_map
    (fun (path, src) ->
      let path = normalize path in
      let own_ml = Filename.remove_extension path ^ ".ml" in
      let modname =
        String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
      in
      with_suppressions ~path src (fun violation ->
          match parse Parse.interface ~path src with
          | Error d -> [ d ]
          | Ok sg ->
              List.iter
                (fun (vpath, loc) ->
                  if
                    not
                      (List.exists (fun (file, r) -> file <> own_ml && mentions r vpath) refs)
                  then
                    violation R7 loc
                      (String.concat "." vpath ^ " is exported but nothing outside "
                      ^ own_ml
                      ^ " references it; delete it, or suppress with the reason it must stay"))
                (List.rev (exported [ modname ] [] sg));
              []))
    interfaces

(* ---- R9: one-sided protocol messages ----

   One pass collects the constructors of the protocol module that every
   other implementation builds (expressions) and matches (patterns), by
   qualified path, and the record fields they read (record patterns and
   field accesses), by name; each constructor of the protocol's request
   type [type _ req] must be in both sets, and each field of every record
   the protocol declares (plain or inline) must be read. *)

let r9_protocol = "lib/core/message.ml"
let r9_request_type = "req"

let one_sided_messages ~protocol:(path, src) ~implementations =
  let path = normalize path in
  let modname =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
  in
  let built = ref SSet.empty and matched = ref SSet.empty and read = ref SSet.empty in
  let note_field (lid : Longident.t) = read := SSet.add (Longident.last lid) !read in
  let note set (lid : Longident.t) =
    match unwrap (flatten_lid lid) with
    | [ m; c ] when m = modname -> set := SSet.add c !set
    | _ -> ()
  in
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> note built txt
    | Pexp_field (_, { txt; _ }) -> note_field txt
    | _ -> ());
    default_iterator.expr self e
  in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> note matched txt
    | Ppat_record (fields, _) -> List.iter (fun ({ Location.txt; _ }, _) -> note_field txt) fields
    | _ -> ());
    default_iterator.pat self p
  in
  let it = { default_iterator with expr; pat } in
  List.iter
    (fun (file, src) ->
      if normalize file <> path then
        match parse Parse.implementation ~path:file src with
        | Ok ast -> it.structure it ast
        | Error _ -> ())
    implementations;
  with_suppressions ~path src (fun violation ->
      match parse Parse.implementation ~path src with
      | Error d -> [ d ]
      | Ok ast ->
          let unread owner lds =
            List.iter
              (fun (ld : Parsetree.label_declaration) ->
                if not (SSet.mem ld.pld_name.txt !read) then
                  violation R9 ld.pld_loc
                    (modname ^ "." ^ owner ^ "." ^ ld.pld_name.txt ^ " is never read outside "
                   ^ path ^ "; delete it, or suppress with the reason it must stay"))
              lds
          in
          let one_sided (cd : Parsetree.constructor_declaration) =
            let c = cd.pcd_name.txt in
            let missing =
              (if SSet.mem c !built then [] else [ "built" ])
              @ if SSet.mem c !matched then [] else [ "matched" ]
            in
            if missing <> [] then
              violation R9 cd.pcd_loc
                (modname ^ "." ^ c ^ " is never " ^ String.concat " or " missing ^ " outside "
               ^ path ^ "; delete it, or suppress with the reason it must stay")
          in
          let requests = ref false in
          List.iter
            (fun (item : Parsetree.structure_item) ->
              match item.pstr_desc with
              | Pstr_type (_, decls) ->
                  List.iter
                    (fun (td : Parsetree.type_declaration) ->
                      match td.ptype_kind with
                      | Ptype_record lds -> unread td.ptype_name.txt lds
                      | Ptype_variant cds ->
                          let is_requests = td.ptype_name.txt = r9_request_type in
                          if is_requests then requests := true;
                          List.iter
                            (fun (cd : Parsetree.constructor_declaration) ->
                              if is_requests then one_sided cd;
                              match cd.pcd_args with
                              | Pcstr_record lds -> unread cd.pcd_name.txt lds
                              | Pcstr_tuple _ -> ())
                            cds
                      | Ptype_abstract | Ptype_open -> ())
                    decls
              | _ -> ())
            ast;
          if !requests then []
          else
            [
              {
                d_file = path;
                d_line = 1;
                d_col = 0;
                d_rule = Some R9;
                d_msg =
                  path ^ " declares no [type _ " ^ r9_request_type
                  ^ "] variant, so R9 checks no request; declare the protocol's \
                     requests there";
              };
            ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?as_path path =
  let logical = match as_path with Some p -> p | None -> path in
  lint_source ~path:logical (read_file path)
