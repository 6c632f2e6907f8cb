(** The serve wire protocol: newline-delimited JSON.

    One request per line in, one response per line out, in request
    order. A request is a JSON object with a ["kind"] field —
    ["parse"], ["analyze"], ["predict"], ["explore"], ["pipeline"],
    ["stats"] or ["shutdown"] — an optional ["id"] echoed verbatim into the
    response, and kind-specific fields (see README "The serve
    protocol"). A response is
    [{"id":…,"ok":true,"kind":…,"cached":…,"result":{…}}] or
    [{"id":…,"ok":false,"kind":…,"errors":[…]}] where each error is a
    structured {!Flexcl_util.Diag.t} rendered to JSON; a load-shed
    response additionally carries a top-level ["retry_after_ms"] hint.
    The server never answers anything else, whatever the input. *)

module Json = Flexcl_util.Json
module Diag = Flexcl_util.Diag

type request = {
  id : Json.t;  (** [Null] when the request carried no ["id"]. *)
  kind : string;
  body : Json.t;  (** the whole request object. *)
}

val request_of_value : Json.t -> (request, Diag.t) result
(** Requires an object with a string ["kind"]; any JSON [kind] value is
    accepted here — dispatch decides whether it names an endpoint. *)

val diag_to_json : Diag.t -> Json.t
(** [{"code":…,"severity":…,"message":…}] plus ["file"], ["line"],
    ["col"] when present. *)

val ok_response :
  id:Json.t -> kind:string -> ?cached:bool -> Json.t -> Json.t

val error_response :
  ?retry_after_ms:int -> id:Json.t -> kind:Json.t -> Diag.t list -> Json.t
(** [kind] is JSON (not a string) so a response to an undecodable
    request can carry [null]. [retry_after_ms] is attached to shed
    ([E-OVERLOAD]) responses as a client backoff hint. *)

(** {2 Field extraction} — total, defaulting accessors used by the
    dispatcher; a wrong type is a [Usage_error] diagnostic naming the
    field. *)

val field_int : Json.t -> string -> default:int -> (int, Diag.t) result
val field_bool : Json.t -> string -> default:bool -> (bool, Diag.t) result
val field_str : Json.t -> string -> (string option, Diag.t) result
val field_num : Json.t -> string -> (float option, Diag.t) result

val field_int_assoc :
  Json.t -> string -> ((string * int) list, Diag.t) result
(** An object-of-integers field, e.g. [{"n":512}]; missing means []. *)

val field_float_assoc :
  Json.t -> string -> ((string * float) list, Diag.t) result

val usage : ('a, unit, string, Diag.t) format4 -> 'a
(** A [Usage_error] diagnostic — the code every protocol-level fault
    reports. *)
