(** Schema sources for rule R1's filtering.

    Section 8: "The current prototype uses the Relax NG for filtering,
    but other forms of metadata such as Graph Schema can be used as
    well."  This module is that pluggability: R1 consumes any source of
    a path language — a DTD's, a Relax NG schema's, or a DataGuide
    derived from the instance itself when no schema was supplied — and
    always in one form, the DFA {!to_dfa} builds. *)

type t =
  | Dtd_paths of Schema_paths.t
  | Relax_ng of Relaxng.t
  | Data_guide of Dataguide.t

let of_dtd dtd = Dtd_paths (Schema_paths.compile dtd)
let of_relaxng rng = Relax_ng rng
let of_dataguide dg = Data_guide dg

(** Is a node with this tag path possible under the source?  The
    reference walk {!to_dfa} agrees with. *)
let admits (t : t) (path : string list) : bool =
  match t with
  | Dtd_paths sp -> Schema_paths.admits sp path
  | Relax_ng rng -> Relaxng.admits rng path
  | Data_guide dg -> Dataguide.admits dg path

(** The path language as a DFA over [alphabet]: R1's test for single
    words and whole fills alike, and the tightening automaton for
    presentation. *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) : Xl_automata.Dfa.t =
  match t with
  | Dtd_paths sp -> Schema_paths.to_dfa sp alphabet
  | Relax_ng rng -> Relaxng.to_dfa rng alphabet
  | Data_guide dg -> Dataguide.to_dfa dg alphabet

let describe = function
  | Dtd_paths _ -> "DTD path language"
  | Relax_ng _ -> "Relax NG schema"
  | Data_guide _ -> "DataGuide (instance-derived)"
