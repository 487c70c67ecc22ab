(** Dominance tests and the two point forms every BMO kernel runs on.

    [dom a b] holds when tuple [a] is strictly better than tuple [b]
    ([b <_P a]). The kernels ({!Bnl}, {!Sfs}, {!Dnc}, {!Bbs}, {!Parallel})
    are generic over a point type and a test on it, and {!points} picks
    one of exactly two forms by one rule:

    - {b float form} — when the term is a skyline
      ({!Preferences.Pref.skyline_dims}: LOWEST/HIGHEST chains, each in
      its own direction) over numeric columns, each row is projected once
      onto a [float array] of its chain attributes, every coordinate
      folded by its dimension's sign so that larger is better (NULL is
      [neg_infinity], or [infinity] under a dual), and tested with
      {!floats_dominate};
    - {b row form} — otherwise the points are the rows themselves, tested
      with the compiled {!of_pref}.

    On numeric columns the projection is exact (a number beats NULL, two
    NULLs tie, as in the compiled test), so a kernel returns the same
    survivors after the same number of tests in either form, whatever the
    directions of the chains. *)

open Pref_relation

type t = Tuple.t -> Tuple.t -> bool

val of_pref : Schema.t -> Preferences.Pref.t -> t
(** Compiled dominance test of a preference term. *)

val counting : t -> t * (unit -> int)
(** Instrument a test with a comparison counter, for the cost experiments. *)

(** {1 The float form} *)

val floats_dominate : float array -> float array -> bool
(** Pointwise [>=] everywhere and [>] somewhere. *)

val float_chain :
  Schema.t -> Preferences.Pref.t -> Preferences.Pref.dim list option
(** The rule: {!Preferences.Pref.skyline_dims} of the term when every
    chain attribute is a numeric column; [None] selects the row form. *)

(** {1 Choosing the form} *)

type points =
  | Points : {
      rows : Tuple.t array;  (** the rows, in the order of the points *)
      point : int -> 'p;  (** the point of row [k]; ask once per row *)
      dom : 'p -> 'p -> bool;  (** the dominance test on points *)
    }
      -> points
(** Rows prepared for a kernel: indices a kernel reports are indices into
    [rows]. *)

val points :
  ?presort:bool -> Schema.t -> Preferences.Pref.t -> Tuple.t array -> points
(** The rows in the form {!float_chain} selects. With [~presort:true] they
    are first put in SFS order: by the sign-folded projection of the
    term's chain, fewer worst-NULL dimensions first, then more best-NULL
    ones, then larger sum over the rest, stably — no row is preceded by
    one it dominates. [points schema p] compiles once
    and can be applied to many row sets. Raises [Invalid_argument] when
    [presort] is asked for a term that is not a chain skyline. *)

val floats : Schema.t -> Preferences.Pref.t -> Tuple.t array -> float array array
(** The float form alone, for the geometric kernels ({!Dnc}, {!Bbs}).
    Raises [Invalid_argument] when {!float_chain} is [None]. *)
