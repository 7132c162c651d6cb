"""Clean twin: a delta provider with a conforming shim."""


class DeltaProvider:
    def update(self, added, removed):
        return {}

    def rates(self, active):
        # the shim reaches update() transitively, through _sync()
        return self._sync(active)

    def _sync(self, active):
        return dict(self.update(list(active), []))

    def reset(self):
        pass


class InheritedShim(DeltaProvider):
    """rates() is judged on the effective method set: update() comes from
    the base class."""

    def rates(self, active):
        return self._sync(active)
