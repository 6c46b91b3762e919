(** GF(2) vectors and incremental Gaussian elimination.

    Substrate for the network-coding gossip comparison
    ({!Coded_bcast}).  A coded packet's coefficient vector lives in
    GF(2)^k; a node can decode all k tokens exactly when the vectors it
    has received span the full space.  {!Basis} maintains a row-echelon
    basis incrementally: each insertion is O(k²/w) bit operations
    (w = word size), which is fine at simulator scale. *)

module Vec : sig
  type t
  (** A fixed-dimension bit vector over GF(2). *)

  val zero : dim:int -> t
  val unit : dim:int -> int -> t
  (** [unit ~dim i] has a single 1 at coordinate [i].
      @raise Invalid_argument if [i] is out of range. *)

  val dim : t -> int
  val is_zero : t -> bool
  val get : t -> int -> bool
  val xor : t -> t -> t
  (** @raise Invalid_argument on dimension mismatch. *)

  val lowest_set : t -> int option
  (** Index of the least-significant 1 bit, if any. *)

  val random : Dynet.Rng.t -> dim:int -> t
  (** Uniform vector (each coordinate an independent fair bit). *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Basis : sig
  type t
  (** A set of linearly independent vectors in row-echelon form, each
      carrying a payload word (the XOR of the corresponding token
      payloads, so decoding is checkable, not just rank-counting). *)

  val create : dim:int -> t

  val rank : t -> int

  val insert : t -> Vec.t -> payload:int -> bool
  (** Reduce the vector against the basis; if it is independent, add
      it (and the correspondingly reduced payload) and return [true];
      return [false] if it was in the span. *)

  val full : t -> bool
  (** [rank = dim]: every token is decodable. *)

  val vectors : t -> (Vec.t * int) list
  (** Current rows with payloads (ascending pivot order). *)

  val decode : t -> int option array
  (** After full rank: [decode t].(i) = Some (payload of token i),
      obtained by back-substitution to the identity; [None] entries
      where rank is missing. *)
end
