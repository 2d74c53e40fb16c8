"""Fixture stand-ins for the other ``SnapshotSpec.component_classes``.

The snapshot pass reports a catalog class the project does not define, so
the fixture defines every listed name; only :mod:`.gmmu` seeds findings.
"""


class FaultBuffer:
    pass


class UTlb:
    pass


class StreamingMultiprocessor:
    pass


class GpuPageTable:
    pass


class ChunkAllocator:
    pass


class CopyEngine:
    pass
