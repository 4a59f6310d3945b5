(** HMAC-SHA256 (RFC 2104), used by the real-runtime SFS example and
    perfbench's [crypto_16k] workload to authenticate replies. Each of
    the two hashes streams its padded-key block and then its message
    through one SHA-256 context, so neither message is copied. *)

val sha256 : key:string -> string -> string
(** 32-byte raw MAC. Keys longer than the 64-byte block are hashed
    first, shorter keys are zero-padded, per the RFC. *)

val sha256_hex : key:string -> string -> string

val verify : key:string -> mac:string -> string -> bool
(** Constant-time comparison against an expected MAC. *)
