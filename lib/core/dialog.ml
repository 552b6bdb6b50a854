(* The teacher dialog as a view over the machine transcript (see
   dialog.mli). *)

module Obs = Xl_obs.Obs

type event =
  | Membership of { label : string; rel_path : string list; answer : bool }
  | Equivalence of {
      label : string;
      extent_size : int;
      outcome : [ `Accepted | `Positive_ce of string | `Negative_ce of string ];
    }
  | Condition_box of { label : string; cond : string; negative : bool }
  | Order_box of { label : string; keys : int }

type record = { seq : int; ts_ns : int; event : event }

let describe_node (n : Xl_xml.Node.t) =
  let value = Xl_xml.Node.string_value n in
  let value = if String.length value > 30 then String.sub value 0 27 ^ "..." else value in
  Printf.sprintf "/%s %S" (String.concat "/" (Xl_xml.Node.tag_path n)) value

(* the events of one exchange; a declined condition box and an empty
   ordering state nothing and show no line *)
let events_of ({ question; answer; _ } : Machine.exchange) : event list =
  match question, answer with
  | Machine.Membership { label; rel_path; _ }, Machine.Bool answer ->
    [ Membership { label; rel_path; answer } ]
  | Machine.Membership_batch { label; rel_paths; _ }, Machine.Bools answers ->
    List.map2 (fun rel_path answer -> Membership { label; rel_path; answer }) rel_paths answers
  | Machine.Equivalence { label; extent; _ }, Machine.Eq eq ->
    let outcome =
      match eq with
      | Teacher.Equal -> `Accepted
      | Teacher.Counter { node; positive = true } -> `Positive_ce (describe_node node)
      | Teacher.Counter { node; positive = false } -> `Negative_ce (describe_node node)
    in
    [ Equivalence { label; extent_size = List.length extent; outcome } ]
  | Machine.Condition_box { label; _ }, Machine.Cb (Some { Teacher.cond; negative; _ }) ->
    [ Condition_box { label; cond = Xl_xqtree.Cond.to_string cond; negative } ]
  | Machine.Order_box { label }, Machine.Order (_ :: _ as keys) ->
    [ Order_box { label; keys = List.length keys } ]
  | _ -> []

let records (transcript : Machine.exchange list) : record list =
  List.concat_map
    (fun (ex : Machine.exchange) ->
      List.mapi
        (fun i event -> { seq = ex.seq + i; ts_ns = ex.ts_ns; event })
        (events_of ex))
    transcript

let event_to_string = function
  | Membership { label; rel_path; answer } ->
    Printf.sprintf "[%s] MQ  .../%s ? %s" label
      (String.concat "/" rel_path)
      (if answer then "Yes" else "No")
  | Equivalence { label; extent_size; outcome } ->
    Printf.sprintf "[%s] EQ  %d nodes highlighted -> %s" label extent_size
      (match outcome with
      | `Accepted -> "OK"
      | `Positive_ce d -> "missing: " ^ d
      | `Negative_ce d -> "wrong: " ^ d)
  | Condition_box { label; cond; negative } ->
    Printf.sprintf "[%s] %s  %s" label (if negative then "NCB" else "PCB") cond
  | Order_box { label; keys } -> Printf.sprintf "[%s] OB  %d sort key(s)" label keys

let to_string transcript =
  String.concat "\n" (List.map (fun r -> event_to_string r.event) (records transcript))

(* ---- JSONL ---- *)

let record_to_json { seq; ts_ns; event } : string =
  match event with
  | Membership { label; rel_path; answer } ->
    Obs.event_json ~seq ~ts_ns ~kind:"mq" ~name:label
      ~detail:(String.concat "/" rel_path)
      ~fields:[ ("answer", string_of_bool answer) ]
      ()
  | Equivalence { label; extent_size; outcome } ->
    let outcome, ce =
      match outcome with
      | `Accepted -> ("accepted", [])
      | `Positive_ce d -> ("positive_ce", [ ("counterexample", Obs.json_string d) ])
      | `Negative_ce d -> ("negative_ce", [ ("counterexample", Obs.json_string d) ])
    in
    Obs.event_json ~seq ~ts_ns ~kind:"eq" ~name:label
      ~fields:
        (("extent_size", string_of_int extent_size)
        :: ("outcome", Obs.json_string outcome) :: ce)
      ()
  | Condition_box { label; cond; negative } ->
    Obs.event_json ~seq ~ts_ns ~kind:"cb" ~name:label ~detail:cond
      ~fields:[ ("negative", string_of_bool negative) ]
      ()
  | Order_box { label; keys } ->
    Obs.event_json ~seq ~ts_ns ~kind:"ob" ~name:label
      ~fields:[ ("keys", string_of_int keys) ]
      ()

let to_jsonl_events transcript =
  List.map (fun r -> (r.seq, record_to_json r)) (records transcript)
