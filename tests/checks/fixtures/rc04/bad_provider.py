"""Seeded RC04 violations: two contract-shape breakages."""


class DriftingRates:
    def update(self, added, removed):
        return {}

    def rates(self, active):
        return {t.transfer_id: 1.0 for t in active}


class ChattyReset:
    def update(self, added, removed):
        return {}

    def reset(self, hard):
        pass
