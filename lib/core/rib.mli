(** Resource Information Base.

    Every IPC process keeps one: a tree of named objects populated and
    queried by the management task (directory entries, link-state
    advertisements, QoS cubes, address-allocation state...).  Object
    names are slash-separated paths such as ["/dir/appname/1"]. *)

type value =
  | V_str of string
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_bytes of bytes

type t

val create : unit -> t

val write : t -> string -> value -> unit
(** Create or overwrite the object at a path (unversioned: leaves any
    version entry for the path untouched). *)

(** {2 Versioned writes}

    Versioned objects carry an (origin address, version) pair so
    replicas can reject stale or duplicate RIEP updates.  Ordering is
    origin-first lexicographic — a higher origin address dominates,
    then a higher version — because a crashed owner re-enrolls with a
    fresh, strictly higher address, so its version-1 re-publication
    still beats whatever its old incarnation flooded. *)

val version_of : t -> string -> (int * int) option
(** The (origin, version) pair of a versioned object, if any. *)

type remote_result =
  | Accepted of { value_changed : bool }
      (** installed; [value_changed] says whether the stored value
          actually differed (re-flood only when it did) *)
  | Duplicate  (** exactly the version we already hold *)
  | Stale  (** dominated by what we already hold *)

val write_owned : t -> string -> value -> origin:int -> int * int
(** Local authoritative write: bumps the path's version (starting at 1)
    under the given origin and returns the new (origin, version) to
    stamp on the flood. *)

val accept_remote :
  t -> string -> value -> origin:int -> ver:int -> remote_result
(** Apply a versioned update received from a peer: installs it iff it
    dominates the current version. *)

val read : t -> string -> value option

val read_int : t -> string -> int option
(** [read] that also checks the value is a [V_int]. *)

val read_str : t -> string -> string option

val delete : t -> string -> bool
(** [true] if the object existed. *)

val exists : t -> string -> bool

val children : t -> string -> string list
(** [children t "/dif/dir"] lists full paths one level below the
    prefix, sorted. *)

val clear : t -> unit
(** Drop every object — the state loss of an IPCP crash. *)

val size : t -> int
(** Number of objects stored. *)

val dump : t -> (string * value) list
(** Every object, sorted by path. *)

val encode_value : Rina_util.Codec.Writer.t -> value -> unit
val decode_value : Rina_util.Codec.Reader.t -> value

val value_equal : value -> value -> bool
val pp_value : Format.formatter -> value -> unit
