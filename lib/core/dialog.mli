(** The teacher dialog — the console analogue of the paper's Figure 5 —
    as a pure view over a machine transcript ({!Machine.transcript}):
    one line per membership-queried word (a batch reads the same as
    word-at-a-time questions), one per equivalence query with its
    counterexample, one per stated condition and one per non-empty
    ordering.  A restored machine's transcript holds the replayed
    prefix too, so its dialog is the whole session's.

    Every record carries its exchange's {!Xl_obs.Obs} stamps, so the
    dialog merges into a span trace ({!to_jsonl_events} +
    [Obs.write_jsonl ~extra]) between the spans that caused it. *)

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

val records : Machine.exchange list -> record list
(** Chronological, sequence numbers ascending. *)

val to_string : Machine.exchange list -> string

val describe_node : Xl_xml.Node.t -> string
(** A node as the dialog names it: tag path and (shortened) value. *)

val to_jsonl_events : Machine.exchange list -> (int * string) list
(** [(seq, json line)] pairs, ready for [Obs.write_jsonl ~extra]: the
    shared {!Xl_obs.Obs.event_json} encoding, kinds [mq], [eq], [cb] and
    [ob]. *)
