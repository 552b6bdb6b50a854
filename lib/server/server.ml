(** See the interface for the protocol.  Implementation geography:

    - {b threads vs domains}: connection handlers are sys-threads on the
      main domain (cheap, blocking-friendly); learner work runs on the
      persistent worker domains of [Pool.Service].  A session is pinned
      to the worker [Service.run ~key:(hash id)] reaches, because the
      machine's suspended effect continuation must resume on the domain
      that captured it and the ambient telemetry session tag is
      domain-local state.
    - {b ownership}: that worker owns the session outright.  Its table
      is domain-local, and every request that reads or changes a
      session (create, answer, status, question, query, suspend, resume,
      delete) is one task on it, so no session state is locked.
      Connection threads frame HTTP, parse JSON and uploads and render
      replies; [/health] reads one atomic count.
    - {b sharing}: catalog stores are built once at startup and read
      shared by every session of the same corpus; uploaded documents
      are deduplicated by content digest (the one lock left: that
      cache is shared by every worker), so a thousand sessions over one
      corpus hold one store.
    - {b fault containment}: HTTP or JSON defects answer a structured
      400 on the connection thread; engine exceptions are caught per
      request ([Service.run] ferries them back) — nothing a client
      sends reaches a worker's main loop or the accept loop. *)

module Json = Xl_json.Json
module Obs = Xl_obs.Obs
module Pool = Xl_exec.Pool
module Machine = Xl_core.Machine
module Machine_codec = Xl_core.Machine_codec
module Scenario = Xl_core.Scenario
module Teacher = Xl_core.Teacher
module Stats = Xl_core.Stats
module Store = Xl_xml.Store
module Ast = Xl_xquery.Ast
module Value = Xl_xquery.Value
module Simple_path = Xl_xquery.Simple_path
module Path_expr = Xl_xquery.Path_expr
module Cond = Xl_xqtree.Cond

(* ---------- metrics ------------------------------------------------------ *)

let c_requests = Obs.Counter.make "server_requests"
let c_parse_errors = Obs.Counter.make "server_parse_errors"
let c_sessions_created = Obs.Counter.make "server_sessions_created"
let c_active = Obs.Counter.make "server_sessions_active"

(* one histogram per endpoint name — a bounded set, unlike session ids,
   which therefore tag spans (unbounded dimension) and not metric names *)
let endpoint_histograms : (string, Obs.Histogram.t) Hashtbl.t = Hashtbl.create 16

let () =
  List.iter
    (fun ep ->
      Hashtbl.replace endpoint_histograms ep
        (Obs.Histogram.make ("server_us_" ^ ep)))
    [
      "health"; "metrics"; "scenarios"; "create"; "list"; "status"; "question";
      "answer"; "query"; "suspend"; "resume"; "delete"; "shutdown"; "other";
    ]

let observe_latency endpoint t0 =
  let ep = if Hashtbl.mem endpoint_histograms endpoint then endpoint else "other" in
  Obs.Histogram.observe
    (Hashtbl.find endpoint_histograms ep)
    ((Obs.now_ns () - t0) / 1000)

(* ---------- sessions ----------------------------------------------------- *)

(* a session's fields are read and written only by tasks on its owner
   worker, so they need no lock *)
type sess = {
  s_id : string;
  s_ref : string;  (* catalog name, or "upload:…" for uploaded corpora *)
  s_scenario : Scenario.t;
  mutable s_machine : Machine.t;
  mutable s_outcome : Machine.outcome;
}

(* the sessions a worker owns: each worker domain has its own table, and
   only tasks on that domain read or write it *)
let owned : (string, sess) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

type t = {
  socket : string;
  spool : string;
  listen_fd : Unix.file_descr;
  svc : Pool.Service.t;
  live : int Atomic.t;  (* sessions in all owner tables, for [/health] *)
  catalog : (string * Scenario.t) list;
  uploads_mutex : Mutex.t;
  uploads : (string, Store.t) Hashtbl.t;
  stopping : bool Atomic.t;
  id_counter : int Atomic.t;
  id_prefix : string;
}

let socket_path t = t.socket

(* Run [f] with the owner worker's table as one task on the worker that
   owns [id], bracketed by the ambient telemetry tag; the request span is
   recorded there too, so per-session filtering sees the server work and
   the machine.step spans it caused under one id. *)
let on_worker t id ~endpoint ~t0 f =
  Pool.Service.run t.svc ~key:(Hashtbl.hash id) (fun () ->
      Obs.set_session (Some id);
      Fun.protect
        ~finally:(fun () ->
          Obs.record_completed ~name:"server.request" ~detail:endpoint
            ~t0_ns:t0 ();
          Obs.set_session None)
        (fun () -> f (Domain.DLS.get owned)))

(* table edits, on the owner worker only *)
let add_sess t tbl ~id ~sref sc m =
  let s =
    {
      s_id = id;
      s_ref = sref;
      s_scenario = sc;
      s_machine = m;
      s_outcome = Machine.outcome m;
    }
  in
  Hashtbl.replace tbl id s;
  Atomic.incr t.live;
  Obs.Counter.incr c_active;
  s

let drop_sess t tbl s =
  Hashtbl.remove tbl s.s_id;
  Atomic.decr t.live;
  Obs.Counter.add c_active (-1);
  Machine.abort s.s_machine

(* every worker's ids: [run ~key:i] for [i < workers] reaches worker [i] *)
let live_sessions t =
  List.concat_map
    (fun i ->
      Pool.Service.run t.svc ~key:i (fun () ->
          Hashtbl.fold (fun id _ l -> id :: l) (Domain.DLS.get owned) []))
    (List.init (Pool.Service.workers t.svc) Fun.id)

(* ---------- wire codec --------------------------------------------------- *)

(* Condition-box predicates cross the wire structurally: one tag key per
   [Cond.t] constructor, paths and comparison operators in their textual
   forms, free-form [Expr] predicates as XQuery text for
   {!Xl_xquery.Parser}.  Never [Marshal]: unmarshalling bytes a client
   chose is neither type- nor memory-safe, and a crafted blob would
   crash the process past every exception handler — the one defect the
   fault-containment invariant above cannot absorb. *)

let cmp_of_string = function
  | "=" -> Some Ast.Eq
  | "!=" -> Some Ast.Ne
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Le
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Ge
  | "is" -> Some Ast.Is
  | _ -> None

(* atoms are exactly the JSON scalars, so they map 1:1 *)
let atom_json = function
  | Value.Str s -> Json.Str s
  | Value.Num f -> Json.Num f
  | Value.Bool b -> Json.Bool b

let atom_of_json = function
  | Json.Str s -> Ok (Value.Str s)
  | Json.Num f -> Ok (Value.Num f)
  | Json.Bool b -> Ok (Value.Bool b)
  | _ -> Error "constant must be a JSON string, number or boolean"

let ep_json (e : Cond.endpoint) =
  Json.Obj
    [
      ("var", Json.str e.Cond.var);
      ("path", Json.str (Simple_path.to_string e.Cond.path));
    ]

let ep_of_json j =
  match (Json.mem_str "var" j, Json.mem_str "path" j) with
  | Some var, Some p -> (
    match Simple_path.of_string p with
    | path -> Ok (Cond.ep ~path var)
    | exception Invalid_argument e -> Error e)
  | _ -> Error "endpoint needs \"var\" and \"path\""

let simple_path_of_json what j =
  match Json.to_string_opt j with
  | None -> Error (what ^ " must be a string path")
  | Some p -> (
    match Simple_path.of_string p with
    | path -> Ok path
    | exception Invalid_argument e -> Error e)

let rec map_result f = function
  | [] -> Ok []
  | x :: xs -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> Result.map (fun ys -> y :: ys) (map_result f xs))

let op_field op = ("op", Json.str (Xl_xquery.Printer.cmp_to_string op))

let op_of_json j =
  match Option.bind (Json.mem_str "op" j) cmp_of_string with
  | Some op -> Ok op
  | None -> Error "\"op\" must be one of =, !=, <, <=, >, >=, is"

let rec cond_json (c : Cond.t) : Json.t =
  match c with
  | Cond.Join (a, b) -> Json.Obj [ ("join", Json.Arr [ ep_json a; ep_json b ]) ]
  | Cond.Value (e, op, atom) ->
    Json.Obj
      [
        ( "value",
          Json.Obj [ ("ep", ep_json e); op_field op; ("const", atom_json atom) ]
        );
      ]
  | Cond.Func_cmp (fn, e, op, atom) ->
    Json.Obj
      [
        ( "func_cmp",
          Json.Obj
            [
              ("fn", Json.str fn);
              ("ep", ep_json e);
              op_field op;
              ("const", atom_json atom);
            ] );
      ]
  | Cond.Expr e ->
    Json.Obj [ ("expr", Json.str (Xl_xquery.Printer.to_string e)) ]
  | Cond.Neg c -> Json.Obj [ ("neg", cond_json c) ]
  | Cond.Relay r ->
    Json.Obj
      [
        ( "relay",
          Json.Obj
            [
              ("var", Json.str r.Cond.relay_var);
              ( "doc",
                match r.Cond.relay_doc with
                | Some d -> Json.str d
                | None -> Json.Null );
              ("path", Json.str (Path_expr.to_string r.Cond.relay_path));
              ( "links",
                Json.list
                  (fun (e, q) ->
                    Json.Obj
                      [
                        ("ep", ep_json e);
                        ("path", Json.str (Simple_path.to_string q));
                      ])
                  r.Cond.links );
              ( "conds",
                Json.list
                  (fun (q, op, atom) ->
                    Json.Obj
                      [
                        ("path", Json.str (Simple_path.to_string q));
                        op_field op;
                        ("const", atom_json atom);
                      ])
                  r.Cond.relay_conds );
            ] );
      ]

(* a depth bound, because "neg" nests and the input is untrusted *)
let max_cond_depth = 64

let cond_of_json (j : Json.t) : (Cond.t, string) result =
  let rec go depth j =
    if depth > max_cond_depth then Error "condition nests too deeply"
    else
      match j with
      | Json.Obj [ (tag, payload) ] -> (
        match (tag, payload) with
        | "join", Json.Arr [ a; b ] -> (
          match (ep_of_json a, ep_of_json b) with
          | Ok a, Ok b -> Ok (Cond.Join (a, b))
          | Error e, _ | _, Error e -> Error e)
        | "join", _ -> Error "\"join\" must be a two-endpoint array"
        | "value", j -> (
          match (Json.member "ep" j, op_of_json j, Json.member "const" j) with
          | Some ep, Ok op, Some atom -> (
            match (ep_of_json ep, atom_of_json atom) with
            | Ok ep, Ok atom -> Ok (Cond.Value (ep, op, atom))
            | Error e, _ | _, Error e -> Error e)
          | _, Error e, _ -> Error e
          | _ -> Error "\"value\" needs \"ep\", \"op\", \"const\"")
        | "func_cmp", j -> (
          match
            ( Json.mem_str "fn" j,
              Json.member "ep" j,
              op_of_json j,
              Json.member "const" j )
          with
          | Some fn, Some ep, Ok op, Some atom -> (
            match (ep_of_json ep, atom_of_json atom) with
            | Ok ep, Ok atom -> Ok (Cond.Func_cmp (fn, ep, op, atom))
            | Error e, _ | _, Error e -> Error e)
          | _, _, Error e, _ -> Error e
          | _ -> Error "\"func_cmp\" needs \"fn\", \"ep\", \"op\", \"const\"")
        | "expr", Json.Str text -> (
          match Xl_xquery.Parser.parse text with
          | e -> Ok (Cond.Expr e)
          | exception Xl_xquery.Parser.Parse_error (msg, pos) ->
            Error (Printf.sprintf "\"expr\" does not parse: %s at byte %d" msg pos))
        | "expr", _ -> Error "\"expr\" must be an XQuery string"
        | "neg", j -> Result.map (fun c -> Cond.Neg c) (go (depth + 1) j)
        | "relay", j -> (
          match
            ( Json.mem_str "var" j,
              Json.member "doc" j,
              Json.mem_str "path" j,
              Json.mem_list "links" j,
              Json.mem_list "conds" j )
          with
          | Some relay_var, doc, Some path, Some links, Some conds -> (
            let relay_doc =
              match doc with
              | None | Some Json.Null -> Ok None
              | Some (Json.Str d) -> Ok (Some d)
              | Some _ -> Error "\"doc\" must be a string or null"
            in
            let relay_path =
              match Xl_xquery.Parser.parse_path_string path with
              | p -> Ok p
              | exception Xl_xquery.Parser.Parse_error (msg, pos) ->
                Error
                  (Printf.sprintf "relay \"path\" does not parse: %s at byte %d"
                     msg pos)
            in
            let links =
              map_result
                (fun l ->
                  match
                    (Json.member "ep" l, Option.map (simple_path_of_json "link \"path\"") (Json.member "path" l))
                  with
                  | Some ep, Some (Ok q) ->
                    Result.map (fun ep -> (ep, q)) (ep_of_json ep)
                  | _, Some (Error e) -> Error e
                  | _ -> Error "relay link needs \"ep\" and \"path\"")
                links
            in
            let conds =
              map_result
                (fun c ->
                  match
                    (Option.map (simple_path_of_json "relay cond \"path\"") (Json.member "path" c),
                     op_of_json c, Json.member "const" c)
                  with
                  | Some (Ok q), Ok op, Some atom ->
                    Result.map (fun atom -> (q, op, atom)) (atom_of_json atom)
                  | Some (Error e), _, _ -> Error e
                  | _, Error e, _ -> Error e
                  | _ -> Error "relay cond needs \"path\", \"op\", \"const\"")
                conds
            in
            match (relay_doc, relay_path, links, conds) with
            | Ok relay_doc, Ok relay_path, Ok links, Ok relay_conds ->
              Ok
                (Cond.Relay
                   { Cond.relay_var; relay_doc; relay_path; links; relay_conds })
            | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _
            | _, _, _, Error e ->
              Error e)
          | _ -> Error "\"relay\" needs \"var\", \"path\", \"links\", \"conds\"")
        | tag, _ -> Error (Printf.sprintf "unknown condition shape %S" tag))
      | _ ->
        Error
          "condition must be an object with exactly one of \"join\", \
           \"value\", \"func_cmp\", \"expr\", \"neg\", \"relay\""
  in
  go 0 j

let node_json store n =
  let uri, dewey = Machine_codec.node_ref store n in
  Json.Obj
    [
      ("uri", Json.str uri);
      ("dewey", Json.list Json.int dewey);
      ("symbol", Json.str (Xl_xml.Node.symbol n));
    ]

let node_of_json store j =
  match (Json.mem_str "uri" j, Json.mem_list "dewey" j) with
  | Some uri, Some steps -> (
    let dewey =
      List.fold_left
        (fun acc s ->
          match (acc, Json.to_int_opt s) with
          | Some l, Some k -> Some (k :: l)
          | _ -> None)
        (Some []) steps
    in
    match dewey with
    | None -> Error "dewey must be an array of integers"
    | Some rev -> Machine_codec.node_of_ref store ~uri ~dewey:(List.rev rev))
  | _ -> Error "node needs \"uri\" and \"dewey\""

let context_json store (ctx : Teacher.context) =
  Json.list
    (fun (v, n) -> Json.Obj [ ("var", Json.str v); ("node", node_json store n) ])
    ctx

let question_json store (q : Machine.question) =
  let open Machine in
  match q with
  | Membership { label; context; rel_path } ->
    Json.Obj
      [
        ("kind", Json.str "membership");
        ("label", Json.str label);
        ("context", context_json store context);
        ("rel_path", Json.list Json.str rel_path);
      ]
  | Membership_batch { label; context; rel_paths } ->
    Json.Obj
      [
        ("kind", Json.str "membership_batch");
        ("label", Json.str label);
        ("context", context_json store context);
        ("rel_paths", Json.list (Json.list Json.str) rel_paths);
      ]
  | Equivalence { label; context; extent } ->
    Json.Obj
      [
        ("kind", Json.str "equivalence");
        ("label", Json.str label);
        ("context", context_json store context);
        ("extent", Json.list (node_json store) extent);
      ]
  | Condition_box { label; context; negative_example } ->
    Json.Obj
      [
        ("kind", Json.str "condition_box");
        ("label", Json.str label);
        ("context", context_json store context);
        ( "negative_example",
          match negative_example with
          | Some n -> node_json store n
          | None -> Json.Null );
      ]
  | Order_box { label } ->
    Json.Obj [ ("kind", Json.str "order_box"); ("label", Json.str label) ]

(* the five answer shapes; [Error] is a client mistake, never an
   exception.  Condition-box predicates travel through the structural
   {!cond_of_json} codec above. *)
let answer_of_json store (j : Json.t) : (Machine.answer, string) result =
  match j with
  | Json.Obj _ -> (
    match
      ( Json.member "bool" j,
        Json.member "bools" j,
        Json.member "eq" j,
        Json.member "cb" j,
        Json.member "order" j )
    with
    | Some (Json.Bool b), None, None, None, None -> Ok (Machine.Bool b)
    | None, Some (Json.Arr bs), None, None, None ->
      List.fold_left
        (fun acc v ->
          match (acc, Json.to_bool_opt v) with
          | Ok l, Some b -> Ok (b :: l)
          | Ok _, None -> Error "\"bools\" must be an array of booleans"
          | e, _ -> e)
        (Ok []) bs
      |> Result.map (fun rev -> Machine.Bools (List.rev rev))
    | None, None, Some e, None, None -> (
      match e with
      | Json.Str "equal" -> Ok (Machine.Eq Teacher.Equal)
      | Json.Obj _ -> (
        match (Json.member "node" e, Json.mem_bool "positive" e) with
        | Some nj, Some positive ->
          Result.map
            (fun node -> Machine.Eq (Teacher.Counter { node; positive }))
            (node_of_json store nj)
        | _ -> Error "\"eq\" counterexample needs \"node\" and \"positive\"")
      | _ -> Error "\"eq\" must be \"equal\" or a counterexample object")
    | None, None, None, Some cb, None -> (
      match cb with
      | Json.Null -> Ok (Machine.Cb None)
      | Json.Obj _ -> (
        match
          ( Json.member "cond" cb,
            Json.mem_int "terminals" cb,
            Json.mem_bool "negative" cb )
        with
        | Some cj, Some terminals, Some negative -> (
          match cond_of_json cj with
          | Error e -> Error ("\"cond\": " ^ e)
          | Ok cond -> Ok (Machine.Cb (Some { Teacher.cond; terminals; negative })))
        | _ -> Error "\"cb\" needs \"cond\", \"terminals\", \"negative\"")
      | _ -> Error "\"cb\" must be null or an object")
    | None, None, None, None, Some (Json.Arr keys) ->
      List.fold_left
        (fun acc k ->
          match acc with
          | Error _ as e -> e
          | Ok l -> (
            match (Json.mem_str "path" k, Json.mem_bool "asc" k) with
            | Some p, Some asc -> (
              match Xl_xquery.Simple_path.of_string p with
              | sp -> Ok ((sp, asc) :: l)
              | exception _ -> Error (Printf.sprintf "bad sort path %S" p))
            | _ -> Error "\"order\" keys need \"path\" and \"asc\""))
        (Ok []) keys
      |> Result.map (fun rev -> Machine.Order (List.rev rev))
    | _ ->
      Error
        "answer must have exactly one of \"bool\", \"bools\", \"eq\", \"cb\", \
         \"order\" (or \"auto\")")
  | _ -> Error "answer must be a JSON object"

let stats_json (st : Stats.t) =
  match Json.parse (Stats.to_json st) with Ok j -> j | Error _ -> Json.Null

(* read on the owner worker, like every session field *)
let outcome_fields (s : sess) =
  let store = s.s_scenario.Scenario.store in
  let base =
    [
      ("id", Json.str s.s_id);
      ("scenario", Json.str s.s_ref);
      ("phase", Json.str (Machine_codec.phase_name (Machine.phase s.s_machine)));
      ("steps", Json.int (Machine.steps s.s_machine));
    ]
  in
  match s.s_outcome with
  | `Ask q -> base @ [ ("question", question_json store q) ]
  | `Done (r : Xl_core.Learn_types.result) ->
    base
    @ [
        ( "done",
          Json.Obj
            [
              ("verified", Json.Bool r.Xl_core.Learn_types.verified);
              ("row", Json.str (Stats.to_row r.Xl_core.Learn_types.stats));
              ("stats", stats_json r.Xl_core.Learn_types.stats);
              ("query", Json.str r.Xl_core.Learn_types.query_text);
            ] );
      ]

(* ---------- session operations (run on the owner worker) ----------------- *)

let do_answer (s : sess) a =
  let o, m = Machine.step s.s_machine a in
  s.s_machine <- m;
  s.s_outcome <- o

let do_auto (s : sess) count =
  let rec go n =
    match s.s_outcome with
    | `Done _ -> ()
    | `Ask _ when n <= 0 -> ()
    | `Ask q ->
      do_answer s (Machine.answer_with (Machine.oracle_teacher s.s_machine) q);
      go (n - 1)
  in
  go count

(* ---------- spool framing ------------------------------------------------ *)

(* magic, version, id blob, scenario-ref blob, machine-snapshot blob,
   MD5 trailer — the XLMACHIN framing discipline *)
let spool_magic = "XLSESSON"
let spool_version = 1

let spool_file t id = Filename.concat t.spool (id ^ ".sess")

let id_ok id =
  id <> "" && String.length id <= 128
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       id
  && id.[0] <> '.'

let spool_encode ~id ~scenario_ref ~snapshot =
  let b = Buffer.create (String.length snapshot + 256) in
  Buffer.add_string b spool_magic;
  Buffer.add_int32_le b (Int32.of_int spool_version);
  let blob s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  blob id;
  blob scenario_ref;
  blob snapshot;
  let body = Buffer.contents b in
  body ^ Digest.string body

let spool_decode data =
  let len = String.length data in
  if len < String.length spool_magic + 4 + 16 then Error "spool file truncated"
  else begin
    let body = String.sub data 0 (len - 16) in
    let digest = String.sub data (len - 16) 16 in
    if not (String.equal (Digest.string body) digest) then
      Error "spool digest mismatch"
    else if not (String.equal (String.sub data 0 8) spool_magic) then
      Error "bad spool magic"
    else begin
      let pos = ref 8 in
      let u32 () =
        let v = Int32.to_int (String.get_int32_le data !pos) in
        pos := !pos + 4;
        v
      in
      let version = u32 () in
      if version <> spool_version then
        Error (Printf.sprintf "spool version %d, want %d" version spool_version)
      else begin
        let blob what =
          let n = u32 () in
          if n < 0 || !pos + n > len - 16 then
            failwith (Printf.sprintf "spool blob %s out of range" what)
          else begin
            let s = String.sub data !pos n in
            pos := !pos + n;
            s
          end
        in
        match
          let id = blob "id" in
          let scenario_ref = blob "scenario" in
          let snapshot = blob "snapshot" in
          (id, scenario_ref, snapshot)
        with
        | v -> Ok v
        | exception Failure e -> Error e
      end
    end
  end

(* ---------- scenario resolution ------------------------------------------ *)

let upload_store t ~uri ~xml =
  let digest = Digest.to_hex (Digest.string xml) in
  Mutex.protect t.uploads_mutex (fun () ->
      match Hashtbl.find_opt t.uploads digest with
      | Some store -> Ok (digest, store)
      | None -> (
        match Xl_xml.Xml_parser.parse_doc ~uri xml with
        | doc ->
          let store = Store.of_docs [ doc ] in
          Hashtbl.replace t.uploads digest store;
          Ok (digest, store)
        | exception Xl_xml.Xml_parser.Parse_error (msg, _) ->
          Error (Printf.sprintf "document does not parse: %s" msg)))

(* an uploaded corpus learns a catalog target: same XQ-Tree, same picks,
   the client's data — "bring your own instance of the schema" *)
let upload_scenario t body =
  match (Json.member "document" body, Json.mem_str "target" body) with
  | Some doc_j, Some target -> (
    match (Json.mem_str "uri" doc_j, Json.mem_str "xml" doc_j) with
    | Some uri, Some xml -> (
      match List.assoc_opt target t.catalog with
      | None -> Error (Printf.sprintf "unknown target scenario %S" target)
      | Some base -> (
        match upload_store t ~uri ~xml with
        | Error _ as e -> e
        | Ok (digest, store) -> (
          let source_dtd =
            match Json.member "dtd" body with
            | Some dtd_j -> (
              match (Json.mem_str "root" dtd_j, Json.mem_str "text" dtd_j) with
              | Some root, Some text -> (
                match Xl_schema.Dtd_parser.parse ~root text with
                | dtd -> Ok (Some dtd)
                | exception Xl_schema.Dtd_parser.Parse_error (msg, _) ->
                  Error (Printf.sprintf "DTD does not parse: %s" msg))
              | _ -> Error "\"dtd\" needs \"root\" and \"text\"")
            | None -> Ok base.Scenario.source_dtd
          in
          match source_dtd with
          | Error _ as e -> e
          | Ok source_dtd ->
            let name =
              Printf.sprintf "%s@%s" base.Scenario.name (String.sub digest 0 8)
            in
            let sc =
              Scenario.make
                ~description:("uploaded corpus for " ^ target)
                ?source_dtd ~picks:base.Scenario.picks
                ~cb_terminals:base.Scenario.cb_terminals
                ~extra_explicit:base.Scenario.extra_explicit ~store
                ~target:base.Scenario.target name
            in
            Ok (Printf.sprintf "upload:%s/%s" digest target, sc))))
    | _ -> Error "\"document\" needs \"uri\" and \"xml\"")
  | _, None -> Error "upload needs a \"target\" catalog scenario"
  | None, _ -> Error "create needs \"scenario\" or \"document\"+\"target\""

let resolve_scenario t body =
  match Json.mem_str "scenario" body with
  | Some name -> (
    match List.assoc_opt name t.catalog with
    | Some sc -> Ok (name, sc)
    | None -> Error (Printf.sprintf "unknown scenario %S" name))
  | None -> upload_scenario t body

(* ---------- handlers ----------------------------------------------------- *)

let err status msg = (status, Json.Obj [ ("error", Json.str msg) ])
let ok fields = (200, Json.Obj fields)

(* the learner found no consistent answer on the session's data (an
   upload whose target has no drag-and-drop example, say): the request
   is well formed but its content cannot be learned — 422, not a
   server error *)
let learning_failed e = err 422 ("learning failed: " ^ e)

(* the prefix changes once per second and the counter restarts with the
   process, so a server restarted on the same spool can draw an id that
   names a suspended session, or one resumed and live again: skip both,
   the spooled on this thread and the live in the create task *)
let rec create_session t ~t0 ((sref, sc) as scenario) =
  let id =
    Printf.sprintf "%s-%x" t.id_prefix (Atomic.fetch_and_add t.id_counter 1)
  in
  if Sys.file_exists (spool_file t id) then create_session t ~t0 scenario
  else
    match
      on_worker t id ~endpoint:"create" ~t0 (fun tbl ->
          if Hashtbl.mem tbl id then None
          else
            Some (outcome_fields (add_sess t tbl ~id ~sref sc (Machine.start sc))))
    with
    | None -> create_session t ~t0 scenario
    | Some fields ->
      Obs.Counter.incr c_sessions_created;
      (201, Json.Obj fields)

let handle_create t ~t0 body =
  match resolve_scenario t body with
  | Error e -> err 400 e
  | Ok scenario -> create_session t ~t0 scenario

(* one task on the owner worker: the lookup, then [f] *)
let with_sess t id ~endpoint ~t0 f =
  on_worker t id ~endpoint ~t0 (fun tbl ->
      match Hashtbl.find_opt tbl id with
      | None -> err 404 (Printf.sprintf "no session %S" id)
      | Some s -> f tbl s)

(* the finished-guard and the step run in one task, so two racing
   answers to one session cannot both pass the guard and double-step *)
let handle_answer t ~t0 id body =
  with_sess t id ~endpoint:"answer" ~t0 (fun _ s ->
      let apply =
        match Json.member "auto" body with
        | Some (Json.Bool true) -> Ok (fun () -> do_auto s 1)
        | Some (Json.Num _) -> (
          match Json.mem_int "auto" body with
          | Some n when n >= 1 && n <= 10_000 -> Ok (fun () -> do_auto s n)
          | _ -> Error "\"auto\" must be a count in [1, 10000]")
        | Some _ -> Error "\"auto\" must be true or a count"
        | None ->
          Result.map
            (fun a () -> do_answer s a)
            (answer_of_json s.s_scenario.Scenario.store body)
      in
      match (apply, s.s_outcome) with
      | Error e, _ -> err 400 e
      | Ok _, `Done _ -> err 409 "session already finished"
      | Ok go, `Ask _ -> (
        match go () with
        | () -> ok (outcome_fields s)
        | exception Invalid_argument e -> err 400 e
        | exception Xl_core.Learn_types.Learning_failed e -> learning_failed e))

let handle_question t ~t0 id =
  with_sess t id ~endpoint:"question" ~t0 (fun _ s ->
      match s.s_outcome with
      | `Done _ -> err 409 "session already finished"
      | `Ask q ->
        ok
          [
            ("id", Json.str s.s_id);
            ("question", question_json s.s_scenario.Scenario.store q);
          ])

(* the hypothesis: a finished session answers its learned query; a
   session suspended at an equivalence question answers the extent the
   learner currently believes in *)
let handle_query t ~t0 id =
  with_sess t id ~endpoint:"query" ~t0 (fun _ s ->
      let store = s.s_scenario.Scenario.store in
      let base =
        [
          ("id", Json.str s.s_id);
          ("phase", Json.str (Machine_codec.phase_name (Machine.phase s.s_machine)));
        ]
      in
      match s.s_outcome with
      | `Done r ->
        ok
          (base
          @ [
              ("query", Json.str r.Xl_core.Learn_types.query_text);
              ("verified", Json.Bool r.Xl_core.Learn_types.verified);
            ])
      | `Ask (Machine.Equivalence { label; extent; _ }) ->
        ok
          (base
          @ [
              ("query", Json.Null);
              ("hypothesis_label", Json.str label);
              ("hypothesis_extent", Json.list (node_json store) extent);
            ])
      | `Ask _ -> ok (base @ [ ("query", Json.Null) ]))

let mkdir_exist_ok dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* The snapshot, the durable write (temp file + rename) and the removal
   are one task: an answer queued behind the suspend finds the session
   gone (404) instead of being acknowledged and then dropped, and a
   failed write answers 500 with the session intact. *)
let handle_suspend t ~t0 id =
  with_sess t id ~endpoint:"suspend" ~t0 (fun tbl s ->
      if String.starts_with ~prefix:"upload:" s.s_ref then
        err 409 "uploaded-corpus sessions cannot be suspended (no stable scenario reference)"
      else begin
        let data =
          spool_encode ~id ~scenario_ref:s.s_ref
            ~snapshot:(Machine.snapshot s.s_machine)
        in
        let final = spool_file t id in
        let tmp = final ^ ".tmp" in
        match
          mkdir_exist_ok t.spool;
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc data);
          Sys.rename tmp final
        with
        | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          err 500 ("spool write failed: " ^ Printexc.to_string e)
        | () ->
          drop_sess t tbl s;
          ok
            [
              ("id", Json.str id);
              ("suspended", Json.Bool true);
              ("bytes", Json.int (String.length data));
            ]
      end)

(* The live check, the spool read, the replay, the insert and the spool
   removal are one task on the worker that also writes the file on
   suspend: a racing resume finds the session live (409) before it
   replays anything, and no resume reads a snapshot that a later
   suspend has replaced. *)
let handle_resume t ~t0 body =
  match Json.mem_str "id" body with
  | None -> err 400 "resume needs an \"id\""
  | Some id when not (id_ok id) -> err 400 "bad session id"
  | Some id ->
    on_worker t id ~endpoint:"resume" ~t0 (fun tbl ->
        let path = spool_file t id in
        if Hashtbl.mem tbl id then err 409 (Printf.sprintf "session %S is live" id)
        else
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error _ ->
            err 404 (Printf.sprintf "no suspended session %S" id)
          | data -> (
            match spool_decode data with
            | Error e -> err 400 ("corrupt spool file: " ^ e)
            | Ok (spool_id, _, _) when not (String.equal spool_id id) ->
              err 400 "spool file names a different session"
            | Ok (_, sref, snapshot) -> (
              match List.assoc_opt sref t.catalog with
              | None -> err 400 (Printf.sprintf "scenario %S not in this catalog" sref)
              | Some sc -> (
                match Machine.restore ~scenario:sc snapshot with
                | exception Machine.Corrupt e -> err 400 ("corrupt snapshot: " ^ e)
                | m ->
                  let s = add_sess t tbl ~id ~sref sc m in
                  Sys.remove path;
                  ok (outcome_fields s)))))

let handle_delete t ~t0 id =
  with_sess t id ~endpoint:"delete" ~t0 (fun tbl s ->
      drop_sess t tbl s;
      ok [ ("id", Json.str id); ("deleted", Json.Bool true) ])

let handle_status t ~t0 id =
  with_sess t id ~endpoint:"status" ~t0 (fun _ s -> ok (outcome_fields s))

let handle_health t =
  ok
    [
      ("ok", Json.Bool true);
      ("workers", Json.int (Pool.Service.workers t.svc));
      ("sessions", Json.int (Atomic.get t.live));
    ]

let handle_metrics () =
  match Json.parse (Obs.telemetry_json ()) with
  | Ok j -> (200, j)
  | Error e -> err 500 ("telemetry rendering failed: " ^ e)

let handle_scenarios t =
  ok [ ("scenarios", Json.list (fun (n, _) -> Json.str n) t.catalog) ]

(* closing the listen fd from another thread does NOT interrupt a
   blocked accept(2); a throwaway connection does — the loop re-checks
   the stopping flag after every accept *)
let request_stop t =
  Atomic.set t.stopping true;
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX t.socket) with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ---------- dispatch ----------------------------------------------------- *)

let split_path p =
  let p =
    match String.index_opt p '?' with Some i -> String.sub p 0 i | None -> p
  in
  List.filter (fun s -> s <> "") (String.split_on_char '/' p)

let parse_body (req : Http.request) =
  if req.Http.body = "" then Ok (Json.Obj [])
  else
    match Json.parse_at req.Http.body with
    | Ok j -> Ok j
    | Error (msg, offset) -> Error (msg, offset)

let with_body req f =
  match parse_body req with
  | Ok body -> f body
  | Error (msg, offset) ->
    ( 400,
      Json.Obj
        [
          ("error", Json.str ("malformed JSON body: " ^ msg));
          ("offset", Json.int offset);
        ] )

(* returns (endpoint label for metrics, (status, body)) *)
let route t ~t0 (req : Http.request) =
  match (req.Http.meth, split_path req.Http.path) with
  | "GET", [ "health" ] -> ("health", handle_health t)
  | "GET", [ "metrics" ] -> ("metrics", handle_metrics ())
  | "GET", [ "scenarios" ] -> ("scenarios", handle_scenarios t)
  | "GET", [ "sessions" ] ->
    ("list", ok [ ("sessions", Json.list Json.str (live_sessions t)) ])
  | "POST", [ "sessions" ] ->
    ("create", with_body req (fun b -> handle_create t ~t0 b))
  | "POST", [ "sessions"; "resume" ] ->
    ("resume", with_body req (fun b -> handle_resume t ~t0 b))
  | "GET", [ "sessions"; id ] -> ("status", handle_status t ~t0 id)
  | "GET", [ "sessions"; id; "question" ] ->
    ("question", handle_question t ~t0 id)
  | "GET", [ "sessions"; id; "query" ] -> ("query", handle_query t ~t0 id)
  | "POST", [ "sessions"; id; "answer" ] ->
    ("answer", with_body req (fun b -> handle_answer t ~t0 id b))
  | "POST", [ "sessions"; id; "suspend" ] -> ("suspend", handle_suspend t ~t0 id)
  | "DELETE", [ "sessions"; id ] -> ("delete", handle_delete t ~t0 id)
  | "POST", [ "shutdown" ] ->
    request_stop t;
    ("shutdown", ok [ ("stopping", Json.Bool true) ])
  | _, segs ->
    ( "other",
      err 404 (Printf.sprintf "no route for %s /%s" req.Http.meth
                 (String.concat "/" segs)) )

let dispatch t (req : Http.request) =
  let t0 = Obs.now_ns () in
  Obs.Counter.incr c_requests;
  let endpoint, response =
    match route t ~t0 req with
    | v -> v
    | exception Xl_core.Learn_types.Learning_failed e ->
      ("other", learning_failed e)
    | exception Machine.Corrupt e -> ("other", err 400 ("corrupt: " ^ e))
    (* a request racing shutdown finds the worker service stopped — that
       is server state, not a client mistake: 503, not 400 *)
    | exception Invalid_argument e
      when Atomic.get t.stopping || e = "Pool.Service.submit: stopped" ->
      ("other", err 503 "server is shutting down")
    | exception Invalid_argument e -> ("other", err 400 e)
    | exception e ->
      ("other", err 500 ("internal error: " ^ Printexc.to_string e))
  in
  observe_latency endpoint t0;
  response

(* ---------- connection + accept loops ------------------------------------ *)

let handle_conn t fd =
  let reader = Http.reader fd in
  let rec loop () =
    match Http.read_request reader with
    | None -> ()
    | Some req ->
      let status, body = dispatch t req in
      Http.write_response fd ~status (Json.to_string body);
      loop ()
    | exception Http.Parse_error { Http.offset; msg } ->
      (* framing is lost after a malformed request: answer and close *)
      Obs.Counter.incr c_parse_errors;
      Http.write_response fd ~status:400
        (Json.to_string
           (Json.Obj
              [
                ("error", Json.str ("malformed request: " ^ msg));
                ("offset", Json.int offset);
              ]))
    | exception Unix.Unix_error _ -> ()
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let create ?workers ?spool ~socket () =
  let tag suite l = List.map (fun (n, sc) -> (suite ^ "/" ^ n, sc)) l in
  let catalog =
    tag "xmark" (Xl_workload.Xmark_scenarios.all ())
    @ tag "xmp" (Xl_workload.Xmp_scenarios.all ())
    @ tag "sgml" (Xl_workload.Sgml_scenarios.all ())
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 128;
  {
    socket;
    spool = (match spool with Some s -> s | None -> socket ^ ".spool");
    listen_fd;
    svc = Pool.Service.start ?workers ();
    live = Atomic.make 0;
    catalog;
    uploads_mutex = Mutex.create ();
    uploads = Hashtbl.create 8;
    stopping = Atomic.make false;
    id_counter = Atomic.make 0;
    id_prefix = Printf.sprintf "s%x" (int_of_float (Unix.time ()) land 0xffffff);
  }

let serve t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        ignore (Thread.create (fun () -> handle_conn t fd) ());
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) ->
        (* listen fd closed by shutdown or fatal accept error: stop *)
        Atomic.set t.stopping true
    end
  in
  loop ();
  Pool.Service.stop t.svc;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()

let shutdown t = request_stop t
