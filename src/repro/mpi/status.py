"""MPI_Status analogue: who sent what, how much."""

from __future__ import annotations

from repro.mpi.datatypes import Datatype


class Status:
    """Result metadata of a completed receive.

    Attributes:
        source: rank of the sender (communicator-local).
        tag: matched tag.
        count: number of received elements.
        nbytes: received payload size on the wire.
    """

    __slots__ = ("source", "tag", "count", "nbytes")

    def __init__(self, source: int = -1, tag: int = -1, count: int = 0,
                 nbytes: int = 0) -> None:
        self.source = source
        self.tag = tag
        self.count = count
        self.nbytes = nbytes

    def __repr__(self) -> str:
        return (f"Status(source={self.source}, tag={self.tag}, "
                f"count={self.count}, nbytes={self.nbytes})")

    def get_count(self, datatype: Datatype) -> int:
        """Element count interpreted in ``datatype`` (``MPI_Get_count``)."""
        if datatype.itemsize == 0:
            return 0
        return self.nbytes // datatype.itemsize
