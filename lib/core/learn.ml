(* LEARN-X1*+E, synchronous driver.

   The engine lives in {!Engine}, run by {!Machine} as a resumable state
   machine; [run] is the thin loop every driver is: start the machine,
   answer each question with a teacher, feed the answer back, until the
   machine is done.  The types are re-exported
   from {!Learn_types} so existing clients keep reading
   [Learn.config]/[Learn.result]. *)

type config = Learn_types.config = {
  rules : Plearner.config;
  strategy : Oracle.strategy;
  max_rounds : int;
  pool : Xl_exec.Pool.t option;
}

let default_config = Learn_types.default_config

type node_result = Learn_types.node_result = {
  task_label : string;
  learned_dfa : Xl_automata.Dfa.t;
  parent_path : Xl_xquery.Path_expr.t option;
  own_path : Xl_xquery.Path_expr.t;
  learned_conds : Xl_xqtree.Cond.t list;
  spare_conds : Xl_xqtree.Cond.t list;
  learned_order : (Xl_xquery.Simple_path.t * bool) list;
  anchored_at_root : bool;
}

type result = Learn_types.result = {
  scenario : Scenario.t;
  stats : Stats.t;
  node_results : node_result list;
  learned : Xl_xqtree.Xqtree.t;
  query_text : string;
  verified : bool;
}

exception Learning_failed = Learn_types.Learning_failed

let run ?(config = default_config) ?on_auto (scenario : Scenario.t) : result =
  let m = Machine.start ~config ?on_auto scenario in
  (* answering with the machine's own simulated oracle keeps the single
     shared evaluation context (and its extent memoization) of the old
     synchronous path *)
  fst (Machine.drive ~teacher:(Machine.oracle_teacher m) m)
