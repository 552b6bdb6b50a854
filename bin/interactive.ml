(** An interactive teacher on stdin/stdout.

    Wraps a scenario's oracle so the human can answer membership and
    equivalence queries themselves (the oracle's intended answer is shown
    after each reply, and Condition/OrderBy Boxes are served from the
    scenario — the CLI cannot type arbitrary predicates).  This is the
    closest console equivalent of the GUI interaction of paper Figure 5. *)

let describe_node = Xl_core.Dialog.describe_node
let read_line_opt () = try Some (read_line ()) with End_of_file -> None

(* At end of input the answer is yes, which goes on with the scenario's
   own answer, as an empty line does for membership questions. *)
let ask_yes_no prompt =
  let rec go () =
    Printf.printf "%s [y/n] %!" prompt;
    match read_line_opt () with
    | Some ("y" | "Y" | "yes") | None -> true
    | Some ("n" | "N" | "no") -> false
    | Some _ ->
      print_endline "please answer y or n";
      go ()
  in
  go ()

(** Wrap [oracle_teacher]: membership and equivalence queries go to the
    console; the oracle's answer is used when the user just presses
    return (so a lazy session still converges). *)
let teacher (oracle_teacher : Xl_core.Teacher.t) : Xl_core.Teacher.t =
  {
    Xl_core.Teacher.path_membership =
      (fun ~label ~context ~rel_path ~witness ->
        let intended =
          oracle_teacher.Xl_core.Teacher.path_membership ~label ~context ~rel_path
            ~witness
        in
        Printf.printf "\n[%s] Membership query: could a node at .../%s belong?\n"
          label
          (String.concat "/" rel_path);
        (match witness with
        | Some w -> Printf.printf "  example in the browser: %s\n" (describe_node w)
        | None -> ());
        Printf.printf "  (return = accept the intended answer %b)\n" intended;
        Printf.printf "> %!";
        (match read_line_opt () with
        | Some ("y" | "Y" | "yes") -> true
        | Some ("n" | "N" | "no") -> false
        | _ -> intended));
    (* no batching at the console: each question must reach the user one
       at a time, in the order the learner would ask them *)
    path_membership_batch = None;
    equivalence =
      (fun ~label ~context ~extent ->
        let intended =
          oracle_teacher.Xl_core.Teacher.equivalence ~label ~context ~extent
        in
        Printf.printf "\n[%s] Equivalence query — the highlighted extent:\n" label;
        List.iteri
          (fun i n -> if i < 15 then Printf.printf "  %2d. %s\n" i (describe_node n))
          extent;
        if List.length extent > 15 then
          Printf.printf "  ... (%d nodes total)\n" (List.length extent);
        (match intended with
        | Xl_core.Teacher.Equal ->
          if ask_yes_no "Is this exactly the intended result?" then
            Xl_core.Teacher.Equal
          else begin
            print_endline
              "(the scenario's target says it is — accepting it anyway)";
            Xl_core.Teacher.Equal
          end
        | Xl_core.Teacher.Counter { node; positive } ->
          Printf.printf "Intended counterexample (%s): %s\n"
            (if positive then "missing" else "wrong")
            (describe_node node);
          ignore (ask_yes_no "Give this counterexample?");
          intended));
    condition_box =
      (fun ~label ~context ~negative_example ->
        let answer =
          oracle_teacher.Xl_core.Teacher.condition_box ~label ~context
            ~negative_example
        in
        (match answer with
        | Some { Xl_core.Teacher.cond; _ } ->
          Printf.printf "\n[%s] Condition Box — the scenario supplies:\n  %s\n" label
            (Xl_xqtree.Cond.to_string cond)
        | None -> ());
        answer);
    order_box = oracle_teacher.Xl_core.Teacher.order_box;
  }
