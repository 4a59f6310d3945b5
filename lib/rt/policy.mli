(** The pure core of the runtime's inbox steal, factored out so its
    order-preservation argument can be tested without domains. No
    clocks, no randomness, no atomics. *)

val split_stack :
  newest_first:'a list -> max_take:int -> ('a -> bool) -> 'a list * 'a list
(** [split_stack ~newest_first ~max_take pred] splits a Treiber-stack
    image (newest first, as exchanged out of an inbox) into [(claimed,
    rest)]: up to [max_take] elements satisfying [pred], claimed
    oldest-first; [rest] keeps every other element newest-first, ready
    to be appended under concurrent pushes with a single CAS. The
    runtime's thief calls it with [~max_take:1]. *)
