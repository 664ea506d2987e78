"""Kernel-capability table: which OCPs can serve which job kinds.

The table maps a kernel kind string (a RAC's ``kind`` class attribute)
to the OCP indices whose elaborated RAC serves it -- the software twin
of lumos-style ``kernel_asic_table`` routing.  It can be derived from
an elaborated SoC (:meth:`CapabilityTable.from_soc`) or written by
hand for a subset routing policy; hand-written tables are validated
against the elaborated system through the soclint OU17x checks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..sim.errors import ConfigurationError


class CapabilityTable:
    """Mapping from kernel kind to the OCP indices that serve it."""

    def __init__(self, table: Mapping[str, Sequence[int]]) -> None:
        if not table:
            raise ConfigurationError(
                "capability table is empty: no kernel kind can ever "
                "be dispatched"
            )
        self._table: Dict[str, Tuple[int, ...]] = {}
        for kind, indices in table.items():
            if not indices:
                raise ConfigurationError(
                    f"capability table lists kind {kind!r} with no OCPs"
                )
            self._table[kind] = tuple(dict.fromkeys(int(i) for i in indices))

    @classmethod
    def of_kinds(cls, kinds: Sequence[str]) -> "CapabilityTable":
        """The full table of a lineup where OCP ``i`` serves
        ``kinds[i]``."""
        table: Dict[str, List[int]] = {}
        for index, kind in enumerate(kinds):
            table.setdefault(kind, []).append(index)
        if not table:
            raise ConfigurationError(
                "cannot build a capability table: the SoC has no OCPs"
            )
        return cls(table)

    @classmethod
    def from_soc(cls, soc) -> "CapabilityTable":
        """Derive the full table from an elaborated SoC."""
        return cls.of_kinds([ocp.rac.kind for ocp in soc.ocps])

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._table)

    def serving(self, kind: str) -> Tuple[int, ...]:
        """OCP indices able to run ``kind`` (raises for unknown kinds)."""
        try:
            return self._table[kind]
        except KeyError:
            raise ConfigurationError(
                f"no OCP serves kernel kind {kind!r}; "
                f"known kinds: {sorted(self._table)}"
            ) from None

    def indices(self) -> Tuple[int, ...]:
        """All OCP indices referenced anywhere in the table."""
        seen: Dict[int, None] = {}
        for indices in self._table.values():
            for index in indices:
                seen[index] = None
        return tuple(seen)

    def as_dict(self) -> Dict[str, List[int]]:
        return {kind: list(indices) for kind, indices in self._table.items()}

    def validate(self, soc):
        """Check this table against an elaborated SoC via soclint.

        Returns the :class:`~repro.verify.diagnostics.VerifyReport`;
        OU170 flags a kind with no serving RAC, OU171 a target index
        that is out of range or hosts a different-kind RAC.
        """
        from ..soclint import lint_soc

        return lint_soc(soc, capabilities=self.as_dict())

    def validate_plan(self, kinds: Sequence[str]):
        """Check this table against a *planned* (unelaborated) SoC.

        ``kinds[i]`` is the kernel kind the RAC planned for OCP ``i``
        serves -- e.g. ``[rac.kind for rac in racs]`` before
        :func:`repro.system.build_mpsoc` ever runs.  Same OU170/OU171
        diagnostics as :meth:`validate`, without paying for
        elaboration.
        """
        from ..soclint.checks import check_capability_kinds
        from ..verify.diagnostics import VerifyReport

        report = VerifyReport()
        check_capability_kinds(list(kinds), report, self.as_dict())
        report.sort()
        return report
