(* Types shared by the learning engine ({!Machine}) and its synchronous
   driver ({!Learn}).  Kept in their own module so the driver can be a
   client of the machine without a dependency cycle; both re-export
   them, so [Learn.config]/[Learn.result] keep working unchanged. *)

open Xl_xqtree

type config = {
  rules : Plearner.config;
  strategy : Oracle.strategy;
  max_rounds : int;
  pool : Xl_exec.Pool.t option;
}

let default_config =
  {
    rules = Plearner.default_config;
    strategy = Oracle.Best;
    max_rounds = 400;
    pool = None;
  }

type node_result = {
  task_label : string;
  learned_dfa : Xl_automata.Dfa.t;
  parent_path : Xl_xquery.Path_expr.t option;
  own_path : Xl_xquery.Path_expr.t;
  learned_conds : Cond.t list;
  spare_conds : Cond.t list;
  learned_order : (Xl_xquery.Simple_path.t * bool) list;
  anchored_at_root : bool;
}

type result = {
  scenario : Scenario.t;
  stats : Stats.t;
  node_results : node_result list;
  learned : Xqtree.t;
  query_text : string;
  verified : bool;
}

exception Learning_failed of string
