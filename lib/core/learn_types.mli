(** Types shared by the learning engine ({!Engine}, {!Machine}) and the
    synchronous driver ({!Learn}).  Both re-export them; see {!Learn}
    for the field documentation that has always lived there. *)

open Xl_xqtree

type config = {
  rules : Plearner.config;
  strategy : Oracle.strategy;
  max_rounds : int;
  pool : Xl_exec.Pool.t option;
}

val default_config : config

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
