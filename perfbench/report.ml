(* The metric report: one human-readable line per metric, then one JSON
   object as the last line of standard output. *)

module Json = Xl_json.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* the names the report may use: [A-Za-z0-9_.-]+, starting with a
   letter or digit *)
let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

type t = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** exactly the names the run was asked for *)
  extra : metric list;  (** printed, not part of the JSON result *)
  notes : string list;  (** check failures and findings, printed *)
}

let error_rate r =
  if r.attempted = 0 then 1. else float_of_int r.failed /. float_of_int r.attempted

let print r =
  Printf.printf "workload %s  seed %d\n" r.workload r.seed;
  List.iter
    (fun x -> Printf.printf "  %-42s %14.4f %s\n" x.name x.value x.unit_)
    (r.metrics @ r.extra);
  Printf.printf "  %-42s %14.4f %s\n" "error_rate" (error_rate r) "frac";
  Printf.printf "  attempted %d, failed %d, outputs correct: %b\n" r.attempted
    r.failed r.correct;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.notes;
  let j =
    Json.Obj
      [
        ("correct", Json.Bool r.correct);
        ("attempted", Json.int r.attempted);
        ("failed", Json.int r.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj [ ("value", Json.Num x.value); ("unit", Json.str x.unit_) ]
                 ))
               r.metrics) );
      ]
  in
  print_endline (Json.to_string j)
