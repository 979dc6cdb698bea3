"""One codec for every stored result: dataclasses <-> JSON-safe payloads.

Every result type the library persists or exports derives from
:class:`Codec`.  Its payload is its fields, each converted by annotation:
nested dataclasses recurse, ``Enum`` members store their ``value``,
``Tuple[...]`` becomes a list and ``Dict[str|int, ...]`` an object (int
keys as strings), ``Optional`` passes ``None`` through, and ``np.ndarray``
fields annotated :data:`FloatArray` / :data:`Int64Array` /
:data:`BoolArray` become nested lists that decode with that dtype (a
payload rebuilt in memory may also hold the arrays themselves).
Sequences of scalars convert in one ``list()``/``tuple()`` call, so long
traces are never walked element by element.

Three payload rules live here and nowhere else:

* ``kind``: ``class X(Codec, kind="x")`` tags its payload.  Decoding
  through a family root (``RunResult.from_dict``) or a ``Union`` field
  dispatches on the tag.
* ``schema_version``: ``versioned=True`` classes stamp
  :data:`RESULT_SCHEMA_VERSION` and reject payloads from a newer schema
  (a payload without the key predates the store and is accepted).
* shape: a missing or unknown field, a wrong container, or a value the
  class's ``__post_init__`` rejects raises :class:`PayloadError`, a
  :class:`~repro.common.errors.StoreError`, so the run store treats a
  damaged artifact as a cache miss.

A payload that carries more than the fields lists its derived entries with
``derived=("method", ...)``: each zero-argument method's result is written
next to the fields and ignored on read.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from typing import (
    Annotated,
    Any,
    Callable,
    ClassVar,
    Collection,
    Dict,
    Optional,
    Tuple,
    Type,
)

import numpy as np

from repro.common.errors import ConfigurationError, ReproError, StoreError

#: Version of every versioned payload schema.  Bump when a payload gains or
#: renames fields.  Version 2 added the derived ``summary`` block to
#: dynamic-run payloads.
RESULT_SCHEMA_VERSION = 2

KIND_KEY = "kind"
SCHEMA_KEY = "schema_version"

#: ``np.ndarray`` annotations carrying the dtype a payload decodes to.
FloatArray = Annotated[np.ndarray, np.float64]
Int64Array = Annotated[np.ndarray, np.int64]
BoolArray = Annotated[np.ndarray, np.bool_]

_Convert = Callable[[Any], Any]

_SCALARS = (str, int, float, bool)
_LIST = (list, tuple)
_ARRAY = (list, tuple, np.ndarray)

#: Payload kind tag -> the class it decodes to.
_KINDS: Dict[str, type] = {}


class PayloadError(StoreError, ConfigurationError):
    """A payload does not describe a value of the requested type."""


class Codec:
    """Base of every serialisable result: ``to_dict``/``from_dict`` and JSON.

    Subclasses are dataclasses; the class keywords ``kind``, ``versioned``
    and ``derived`` declare the payload rules of the module docstring.
    """

    kind: ClassVar[Optional[str]] = None
    versioned: ClassVar[bool] = False
    derived: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(
        cls,
        kind: Optional[str] = None,
        versioned: bool = False,
        derived: Tuple[str, ...] = (),
        **kwargs: Any,
    ) -> None:
        super().__init_subclass__(**kwargs)
        if kind is not None:
            if _KINDS.setdefault(kind, cls) is not cls:
                raise ConfigurationError(f"payload kind {kind!r} is taken")
            cls.kind = kind
        if versioned:
            cls.versioned = True
        if derived:
            cls.derived = derived

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload describing this value."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        """Rebuild a value from a :meth:`to_dict` payload."""
        return decode(cls, data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise this value to a JSON document."""
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Rebuild a value from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def check_schema_version(data: Dict[str, Any], what: str) -> None:
    """Reject a payload written by a schema newer than this library."""
    version = data.get(SCHEMA_KEY, RESULT_SCHEMA_VERSION)
    if type(version) is not int or version > RESULT_SCHEMA_VERSION:
        raise PayloadError(
            f"{what} payload has schema version {version!r}, newer than "
            f"this library understands (<= {RESULT_SCHEMA_VERSION})"
        )


# -- per-annotation converters ---------------------------------------------------------


def _expect(container: Any, value: Any) -> Any:
    if not isinstance(value, container):
        name = "an object" if container is dict else "a list"
        raise PayloadError(f"expected {name}, got {type(value).__name__}")
    return value


def _identity(value: Any) -> Any:
    return value


def _checked(hint: type) -> _Convert:
    accepted = (int, float) if hint is float else hint

    def check(value: Any) -> Any:
        if isinstance(value, accepted) and (
            hint is bool or not isinstance(value, bool)
        ):
            return value
        raise PayloadError(f"expected {hint.__name__}, got {type(value).__name__}")

    return check


def _guarded(convert: _Convert) -> _Convert:
    def guarded(value: Any) -> Any:
        try:
            return convert(value)
        except (TypeError, ValueError) as error:
            raise PayloadError(str(error)) from None

    return guarded


def _tagged(members: Tuple[Any, ...]) -> _Convert:
    """Decoder of a ``Union`` of records, picked by the payload's kind."""
    tagged = {m.kind: m for m in members if getattr(m, "kind", None)}
    untagged = [m for m in members if m not in tagged.values()]
    if len(untagged) > 1 or not all(is_dataclass(m) for m in members):
        raise ConfigurationError(
            f"the payload codec needs a union of records with at most one "
            f"untagged member, got {members!r}"
        )

    def pick(value: Any) -> Any:
        kind = _expect(dict, value).get(KIND_KEY)
        default = untagged[0] if untagged else None
        target = default if kind is None else tagged.get(kind)
        if target is None:
            raise PayloadError(
                f"unknown kind {kind!r}; expected one of {sorted(tagged)}"
            )
        return decode(target, value)

    return _guarded(pick)


def _converters(hint: Any) -> Tuple[_Convert, _Convert]:
    """The ``(encode, decode)`` pair of one field annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        return _identity, _checked(hint)
    if origin is Annotated:
        dtype = args[1]
        return (
            lambda value: np.asarray(value, dtype=dtype).tolist(),
            _guarded(lambda value: np.asarray(_expect(_ARRAY, value), dtype=dtype)),
        )
    if isinstance(hint, type) and issubclass(hint, Enum):
        return (lambda value: value.value), _guarded(hint)
    if isinstance(hint, type) and is_dataclass(hint):
        return encode, lambda value: decode(hint, value)
    if origin is typing.Union:
        members = tuple(arg for arg in args if arg is not type(None))
        if len(members) == 1:
            enc, dec = _converters(members[0])
        else:
            enc, dec = encode, _tagged(members)
        return (
            lambda value: None if value is None else enc(value),
            lambda value: None if value is None else dec(value),
        )
    if origin is tuple and args[-1] is Ellipsis:
        if args[0] in _SCALARS:
            return list, lambda value: tuple(_expect(_LIST, value))
        enc, dec = _converters(args[0])
        return (
            lambda value: [enc(x) for x in value],
            lambda value: tuple(dec(x) for x in _expect(_LIST, value)),
        )
    if origin is tuple:
        pairs = [_converters(arg) for arg in args]

        def fixed(value: Any) -> Tuple[Any, ...]:
            if len(_expect(_LIST, value)) != len(pairs):
                raise PayloadError(f"expected {len(pairs)} items, got {len(value)}")
            return tuple(dec(x) for (_, dec), x in zip(pairs, value))

        return (lambda value: [enc(x) for (enc, _), x in zip(pairs, value)]), fixed
    if origin is dict and args[0] in (str, int):
        key = args[0]
        enc, dec = _converters(args[1])
        return (
            lambda value: {str(k): enc(x) for k, x in value.items()},
            _guarded(
                lambda value: {key(k): dec(x) for k, x in _expect(dict, value).items()}
            ),
        )
    raise ConfigurationError(f"the payload codec cannot convert {hint!r}")


class _Plan:
    """How one dataclass maps to its payload, built once per class."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls, include_extras=True)
        init = [f for f in fields(cls) if f.init]
        self.name = cls.__name__
        self.fields = tuple((f.name, *_converters(hints[f.name])) for f in init)
        self.required = frozenset(
            f.name
            for f in init
            if f.default is MISSING and f.default_factory is MISSING
        )
        codec = issubclass(cls, Codec)
        self.kind = cls.kind if codec else None
        self.versioned = codec and cls.versioned
        self.derived = cls.derived if codec else ()
        self.keys = frozenset(
            [f.name for f in init]
            + list(self.derived)
            + [KIND_KEY] * bool(self.kind)
            + [SCHEMA_KEY] * self.versioned
        )


_plan = lru_cache(maxsize=None)(_Plan)


# -- encode / decode -------------------------------------------------------------------


def encode(value: Any, omit: Collection[str] = ()) -> Dict[str, Any]:
    """The JSON-safe payload of one dataclass instance, without the *omit*
    fields (a caller that stores those elsewhere passes them to
    :func:`decode` in the payload it rebuilds)."""
    plan = _plan(type(value))
    payload = {
        name: enc(getattr(value, name))
        for name, enc, _ in plan.fields
        if name not in omit
    }
    if plan.kind:
        payload[KIND_KEY] = plan.kind
    if plan.versioned:
        payload[SCHEMA_KEY] = RESULT_SCHEMA_VERSION
    for name in plan.derived:
        payload[name] = getattr(value, name)()
    return payload


def decode(cls: Type[Any], data: Any) -> Any:
    """Rebuild a *cls* instance (or a kind-tagged subclass) from a payload."""
    _expect(dict, data)
    kind = data.get(KIND_KEY)
    if issubclass(cls, Codec) and (
        not is_dataclass(cls) or (kind is not None and kind != cls.kind)
    ):
        target = _KINDS.get(kind) if isinstance(kind, str) else None
        if target is None or not issubclass(target, cls):
            family = sorted(k for k, c in _KINDS.items() if issubclass(c, cls))
            raise PayloadError(
                f"unknown {cls.__name__} kind {kind!r}; expected one of {family}"
            )
        cls = target
    plan = _plan(cls)
    if plan.versioned:
        check_schema_version(data, plan.name)
    unknown = data.keys() - plan.keys
    if unknown:
        raise PayloadError(f"{plan.name} payload has unknown fields {sorted(unknown)}")
    missing = plan.required - data.keys()
    if missing:
        raise PayloadError(f"{plan.name} payload is missing fields {sorted(missing)}")
    kwargs: Dict[str, Any] = {}
    for name, _, dec in plan.fields:
        if name in data:
            try:
                kwargs[name] = dec(data[name])
            except PayloadError as error:
                raise PayloadError(f"{plan.name}.{name}: {error}") from None
    try:
        return cls(**kwargs)
    except (ReproError, TypeError, ValueError) as error:
        raise PayloadError(f"invalid {plan.name} payload: {error}") from None
