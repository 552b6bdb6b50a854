(** Offline analysis over a written JSONL trace.

    [Obs.write_jsonl] emits one JSON object per line; this module reads
    the file back, rebuilds the span nesting, and answers the
    where-does-the-time-go questions that the live summary table cannot:
    self time vs child time per span name, the aggregated call tree,
    per-worker utilization and imbalance, and the critical path through
    the fan-out.

    Nesting is reconstructed per domain: [Obs.span] stamps each span
    with its start-order sequence number and its nesting depth, so
    within one domain the spans in sequence order with a depth-indexed
    stack give back the exact tree.  Nothing here touches live state —
    the input is the file, so traces from finished runs (or other
    machines) analyze the same way. *)

module Json = Xl_json.Json

type span = {
  name : string;
  detail : string option;
  session : string option;
  t0_ns : int;
  dur_ns : int;
  seq : int;
  depth : int;
  domain : int;
  mutable children : span list;  (* seq order *)
  mutable child_ns : int;        (* total duration of direct children *)
}

let self_ns s = max 0 (s.dur_ns - s.child_ns)

type trace = {
  spans : span list;       (* every span, ascending seq *)
  roots : span list;       (* depth-0 spans, ascending seq *)
  events : int;            (* all trace lines, spans included *)
  other_events : int;      (* non-span lines (counters, dialog, …) *)
}

type name_stat = {
  ns_name : string;
  ns_count : int;
  ns_total_ns : int;  (* inclusive *)
  ns_self_ns : int;   (* exclusive of children *)
}

(* ---------- parsing ------------------------------------------------------ *)

let span_of_json lineno j =
  let req what = function
    | Some v -> v
    | None ->
      failwith (Printf.sprintf "line %d: span event missing %s" lineno what)
  in
  {
    name = req "name" (Json.mem_str "name" j);
    detail = Json.mem_str "detail" j;
    session = Json.mem_str "session" j;
    t0_ns = req "ts_ns" (Json.mem_int "ts_ns" j);
    dur_ns = req "dur_ns" (Json.mem_int "dur_ns" j);
    seq = req "seq" (Json.mem_int "seq" j);
    depth = req "depth" (Json.mem_int "depth" j);
    domain = req "domain" (Json.mem_int "domain" j);
    children = [];
    child_ns = 0;
  }

(* Rebuild the nesting: per domain, walk spans in start (= seq) order
   keeping a stack indexed by depth; a span at depth [d] is a child of
   the current depth-[d-1] span. *)
let link_children spans =
  let by_domain : (int, span list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_domain s.domain with
      | Some l -> l := s :: !l
      | None -> Hashtbl.replace by_domain s.domain (ref [ s ]))
    spans;
  Hashtbl.iter
    (fun _dom l ->
      let ordered = List.sort (fun a b -> compare a.seq b.seq) !l in
      let stack = ref [] in
      List.iter
        (fun s ->
          (* drop frames at or below this span's depth *)
          while
            match !stack with
            | top :: _ when top.depth >= s.depth -> true
            | _ -> false
          do
            stack := List.tl !stack
          done;
          (match !stack with
          | parent :: _ ->
            parent.children <- s :: parent.children;
            parent.child_ns <- parent.child_ns + s.dur_ns
          | [] -> ());
          stack := s :: !stack)
        ordered)
    by_domain;
  List.iter (fun s -> s.children <- List.rev s.children) spans

let of_lines lines =
  try
    let spans = ref [] in
    let events = ref 0 in
    let others = ref 0 in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        if String.trim line <> "" then begin
          incr events;
          match Json.parse line with
          | Error e -> failwith (Printf.sprintf "line %d: %s" lineno e)
          | Ok j -> (
            match Json.mem_str "kind" j with
            | None -> failwith (Printf.sprintf "line %d: event without kind" lineno)
            | Some "span" -> spans := span_of_json lineno j :: !spans
            | Some _ -> incr others)
        end)
      lines;
    let spans = List.sort (fun a b -> compare a.seq b.seq) !spans in
    link_children spans;
    Ok
      {
        spans;
        roots = List.filter (fun s -> s.depth = 0) spans;
        events = !events;
        other_events = !others;
      }
  with Failure msg -> Error msg

let of_string text = of_lines (String.split_on_char '\n' text)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

(* ---------- session filtering -------------------------------------------- *)

(* Restrict a trace to one session's spans and re-link the nesting
   among the survivors.  The server tags a worker's whole task extent,
   so a session's spans are contiguous tagged regions per domain and
   the depth-stack reconstruction applies to the filtered list as it
   does to the full one (an untagged ancestor simply promotes its
   tagged descendants toward the root). *)
let filter_session t id =
  let keep = List.filter (fun s -> s.session = Some id) t.spans in
  let fresh = List.map (fun s -> { s with children = []; child_ns = 0 }) keep in
  link_children fresh;
  let child_seq : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s -> List.iter (fun c -> Hashtbl.replace child_seq c.seq ()) s.children)
    fresh;
  {
    spans = fresh;
    roots = List.filter (fun s -> not (Hashtbl.mem child_seq s.seq)) fresh;
    events = List.length fresh;
    other_events = 0;
  }

(* Distinct session tags with span count and total inclusive time,
   sorted by descending span count — the index [obs-report] prints so a
   user knows what [--session] can select. *)
let sessions t =
  let tbl : (string, (int * int) ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.session with
      | None -> ()
      | Some id -> (
        match Hashtbl.find_opt tbl id with
        | Some r ->
          let c, ns = !r in
          r := (c + 1, ns + s.dur_ns)
        | None -> Hashtbl.replace tbl id (ref (1, s.dur_ns))))
    t.spans;
  Hashtbl.fold (fun id r acc -> (id, fst !r, snd !r) :: acc) tbl []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

(* ---------- aggregates --------------------------------------------------- *)

let wall_ns t =
  match t.spans with
  | [] -> 0
  | _ ->
    let t0 = List.fold_left (fun acc s -> min acc s.t0_ns) max_int t.spans in
    let t1 =
      List.fold_left (fun acc s -> max acc (s.t0_ns + s.dur_ns)) min_int t.spans
    in
    t1 - t0

let by_name t =
  let tbl : (string, name_stat ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.name with
      | Some st ->
        st :=
          {
            !st with
            ns_count = !st.ns_count + 1;
            ns_total_ns = !st.ns_total_ns + s.dur_ns;
            ns_self_ns = !st.ns_self_ns + self_ns s;
          }
      | None ->
        Hashtbl.replace tbl s.name
          (ref
             {
               ns_name = s.name;
               ns_count = 1;
               ns_total_ns = s.dur_ns;
               ns_self_ns = self_ns s;
             }))
    t.spans;
  Hashtbl.fold (fun _ st acc -> !st :: acc) tbl []
  |> List.sort (fun a b -> compare b.ns_self_ns a.ns_self_ns)

let utilization t =
  (* busy = sum of root-span durations per domain: nested spans overlap
     their parents, so only depth-0 time counts toward occupancy *)
  let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.domain with
      | Some r -> r := !r + s.dur_ns
      | None -> Hashtbl.replace tbl s.domain (ref s.dur_ns))
    t.roots;
  let wall = wall_ns t in
  Hashtbl.fold
    (fun dom busy acc ->
      let frac = if wall = 0 then 0. else float_of_int !busy /. float_of_int wall in
      (dom, !busy, frac) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* The chain of spans that bounds the end-to-end time: start from the
   latest-finishing root, descend into the latest-finishing child at
   each level.  In a fork-join fan-out this walks through the straggler
   worker — exactly the spans a speedup must shorten. *)
let critical_path t =
  let ends s = s.t0_ns + s.dur_ns in
  let latest = function
    | [] -> None
    | x :: rest ->
      Some (List.fold_left (fun acc s -> if ends s > ends acc then s else acc) x rest)
  in
  let rec descend acc s =
    match latest s.children with
    | None -> List.rev (s :: acc)
    | Some c -> descend (s :: acc) c
  in
  match latest t.roots with None -> [] | Some root -> descend [] root

(* ---------- report ------------------------------------------------------- *)

let ms ns = float_of_int ns /. 1e6

(* Aggregated call tree: group spans by their name-path from the root,
   print children by descending total time. *)
type tree_node = {
  tn_name : string;
  tn_count : int;
  tn_total : int;
  tn_self : int;
  tn_children : tree_node list;
}

let render_tree b t ~top =
  (* per-root-name aggregation keeps sibling roots with the same name
     (e.g. every learn.scenario) on one line *)
  let module M = Map.Make (String) in
  let rec aggregate spans =
    let groups =
      List.fold_left
        (fun m s ->
          let cur = try M.find s.name m with Not_found -> [] in
          M.add s.name (s :: cur) m)
        M.empty spans
    in
    M.fold
      (fun name group acc ->
        {
          tn_name = name;
          tn_count = List.length group;
          tn_total = List.fold_left (fun a s -> a + s.dur_ns) 0 group;
          tn_self = List.fold_left (fun a s -> a + self_ns s) 0 group;
          tn_children = aggregate (List.concat_map (fun s -> s.children) group);
        }
        :: acc)
      groups []
    |> List.sort (fun a b -> compare b.tn_total a.tn_total)
  in
  let rec print indent nodes =
    List.iteri
      (fun i n ->
        if i < top then begin
          Buffer.add_string b
            (Printf.sprintf "  %s%-*s %6d  %10.2f  %10.2f\n" indent
               (max 1 (34 - String.length indent))
               n.tn_name n.tn_count (ms n.tn_total) (ms n.tn_self));
          print (indent ^ "  ") n.tn_children
        end
        else if i = top then
          Buffer.add_string b
            (Printf.sprintf "  %s… %d more\n" indent (List.length nodes - top)))
      nodes
  in
  Buffer.add_string b
    (Printf.sprintf "  %-34s %6s  %10s  %10s\n" "span tree" "count" "total ms"
       "self ms");
  print "" (aggregate t.roots)

let report ?(top = 10) t =
  let b = Buffer.create 2048 in
  let wall = wall_ns t in
  Buffer.add_string b "== trace report ==\n";
  Buffer.add_string b
    (Printf.sprintf "  events %d (spans %d, other %d), domains %d, wall %.2f ms\n"
       t.events (List.length t.spans) t.other_events
       (List.length (utilization t))
       (ms wall));
  Buffer.add_string b "\n-- span tree (self vs child time) --\n";
  render_tree b t ~top;
  Buffer.add_string b "\n-- top self time --\n";
  Buffer.add_string b
    (Printf.sprintf "  %-30s %8s %12s %12s %7s\n" "name" "count" "total ms"
       "self ms" "self%");
  let stats = by_name t in
  List.iteri
    (fun i st ->
      if i < top then
        Buffer.add_string b
          (Printf.sprintf "  %-30s %8d %12.2f %12.2f %6.1f%%\n" st.ns_name
             st.ns_count (ms st.ns_total_ns) (ms st.ns_self_ns)
             (if wall = 0 then 0.
              else 100. *. float_of_int st.ns_self_ns /. float_of_int wall)))
    stats;
  Buffer.add_string b "\n-- worker utilization --\n";
  let util = utilization t in
  List.iter
    (fun (dom, busy, frac) ->
      Buffer.add_string b
        (Printf.sprintf "  domain %-4d busy %10.2f ms  (%5.1f%% of wall)\n" dom
           (ms busy) (100. *. frac)))
    util;
  (match util with
  | [] | [ _ ] -> ()
  | _ ->
    let busies = List.map (fun (_, busy, _) -> busy) util in
    let mx = List.fold_left max 0 busies in
    let mean =
      float_of_int (List.fold_left ( + ) 0 busies) /. float_of_int (List.length busies)
    in
    Buffer.add_string b
      (Printf.sprintf "  imbalance: max/mean = %.2f\n"
         (if mean = 0. then 1. else float_of_int mx /. mean)));
  Buffer.add_string b "\n-- critical path --\n";
  (match critical_path t with
  | [] -> Buffer.add_string b "  (no spans)\n"
  | path ->
    List.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf "  %s%s%s  %.2f ms (self %.2f ms, domain %d)\n"
             (String.make (2 * i) ' ')
             s.name
             (match s.detail with Some d -> " [" ^ d ^ "]" | None -> "")
             (ms s.dur_ns) (ms (self_ns s)) s.domain))
      path);
  Buffer.contents b
