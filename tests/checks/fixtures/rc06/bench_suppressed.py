"""RC06 violation silenced by an inline suppression comment."""

import json


def publish(record, handle):
    json.dump(record, handle)  # repro-check: ignore[RC06]
